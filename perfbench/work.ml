(* What one round of a workload hands back to the runner.  A round is
   set-up, then the timed phase, then (when asked) the twin: the same
   inputs on the workload's baseline path. *)

exception Wrong of string
(** A wrong output: the run stops and exits nonzero. *)

let wrong fmt = Printf.ksprintf (fun m -> raise (Wrong m)) fmt

type round = {
  setup_ns : int;  (** host ns of set-up: world construction and input seeding *)
  timed_ns : int;  (** host ns of the timed phase *)
  samples : Measure.samples;  (** per-operation host and virtual ns *)
  virt_ns : int;  (** virtual ns of the timed phase *)
  alloc_words : float;  (** host words allocated in the timed phase *)
  inputs : string;  (** digest of the generated inputs *)
  outputs : string;  (** digest of the checked outputs (trees, replies, reports) *)
  fingerprint : string;
      (** digest of every virtual-clock figure and program counter of the
          timed phase: equal across rounds of one seed *)
  counters : (string * float) list;  (** per-layer counters read from the program's registries *)
  overhead : float option;
      (** virtual time of the system ÷ virtual time of its twin (the same
          inputs on the workload's baseline path), when the round ran it *)
}

type workload = {
  name : string;
  distinct : bool;
      (** rounds of one seed use distinct inputs, selected by [index];
          otherwise every round repeats round 0 *)
  round : seed:int -> index:int -> twin:bool -> tracer:Spans.t option -> round;
}

(* Time [f] with the host clock and the host allocation counter. *)
let timed f =
  let a0 = Measure.alloc_words () in
  let t0 = Measure.now_ns () in
  let v = f () in
  let ns = Measure.since_ns t0 in
  (v, ns, Measure.alloc_words () -. a0)

(* One operation: host and virtual ns go into [s]; an [Error] result
   counts as a failed operation. *)
let op s clock f =
  let v0 = Repro_util.Clock.now_ns clock in
  let h0 = Measure.now_ns () in
  let r = f () in
  let h = Measure.since_ns h0 in
  let v = Int64.to_int (Int64.sub (Repro_util.Clock.now_ns clock) v0) in
  Measure.record s ~host:h ~virt:v;
  (match r with Ok _ -> () | Error _ -> Measure.fail s);
  r

let digest_strings l = Digest.to_hex (Digest.string (String.concat "\n" l))

let digest_vec (v : Measure.vec) =
  let b = Buffer.create (v.n * 8) in
  for i = 0 to v.n - 1 do
    Buffer.add_string b (string_of_int v.a.(i));
    Buffer.add_char b ','
  done;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* Every counter and gauge of a registry, for the determinism fingerprint.
   Histograms contribute their exact count and sum only. *)
let registry_digest m =
  let open Repro_obs.Metrics in
  snapshot m
  |> List.map (fun (name, v) ->
         match v with
         | V_counter c -> Printf.sprintf "%s=%d" name c
         | V_gauge g -> Printf.sprintf "%s=%.6g" name g
         | V_histogram s -> Printf.sprintf "%s=%d/%.6g" name s.s_count s.s_sum)
  |> digest_strings

(* The file-system stack's program counters (os, fuse, cntrfs, vfs and the
   FUSE queue's work-stealing sched counters) in registry [m], named as in
   BENCHMARK.json. *)
let stack_counters m =
  let c n = float_of_int (Repro_obs.Metrics.counter_value m n) in
  let g n = Repro_obs.Metrics.gauge_value m n in
  let h n =
    match Repro_obs.Metrics.histogram_summary m n with
    | Some s -> s.Repro_obs.Metrics.s_mean
    | None -> 0.
  in
  let ratio hits misses = if hits +. misses > 0. then hits /. (hits +. misses) else 0. in
  let busy =
    List.fold_left
      (fun acc (name, v) ->
        if String.length name > 8 && Filename.check_suffix name ".busy_ns" then acc +. float_of_int v
        else acc)
      0.
      (Repro_obs.Metrics.counters_with_prefix m ~prefix:"cntrfs.worker.")
  in
  [
    ("os.syscall.count", c "os.syscall.count");
    ("os.context_switches", c "os.context_switches");
    ("fuse.req.count", c "fuse.req.count");
    ("fuse.round_trips", c "fuse.round_trips");
    ("fuse.bytes.copied", c "fuse.bytes.copied");
    ("fuse.bytes.spliced", c "fuse.bytes.spliced");
    ("fuse.passthrough.reads", c "fuse.passthrough.reads");
    ("fuse.dentry.hit_ratio", ratio (c "fuse.dentry.hits") (c "fuse.dentry.misses"));
    ("fuse.readdirplus.entries", c "fuse.readdirplus.entries");
    ("fuse.queue.wait_us.mean", h "fuse.queue.wait_us");
    ("fuse.inflight.max", g "fuse.inflight.max");
    ("cntrfs.lookup.count", c "cntrfs.lookup.count");
    ("cntrfs.lookup.amplification", g "cntrfs.lookup.amplification");
    ("cntrfs.lookup.backing_ops", c "cntrfs.lookup.backing_ops");
    ("cntrfs.handle_cache.hit_ratio", g "cntrfs.handle_cache.hit_ratio");
    ("cntrfs.read.bytes", c "cntrfs.read.bytes");
    ("cntrfs.write.bytes", c "cntrfs.write.bytes");
    ("cntrfs.worker.busy_ns", busy);
    ("vfs.page_cache.fuse.hit_ratio", g "vfs.page_cache.fuse.hit_ratio");
    ("vfs.page_cache.fuse.evictions", c "vfs.page_cache.fuse.evictions");
    ("vfs.page_cache.hit_ratio", g "vfs.page_cache.hit_ratio");
    ("vfs.disk.read_bytes", c "vfs.disk.read_bytes");
    ("vfs.disk.write_bytes", c "vfs.disk.write_bytes");
    ("sched.steals", c "sched.steals");
    ("sched.local_hits", c "sched.local_hits");
    ("sched.steal_fails", c "sched.steal_fails");
  ]

