(* The repository benchmark.

     perfbench --workload W --seed N --seconds S --trace 0|1

   W is fs-stream, fs-meta, ctrl-churn or registry.  The run repeats
   rounds of W (set-up, then the timed phase) for S host seconds.  Every
   round of one seed must reproduce the first round's virtual-clock
   samples and program counters exactly; one extra round at seed N+1 must
   generate different inputs and pass every check.

   --trace 0 prints the end-to-end metrics; --trace 1 alternates untraced
   and traced rounds, writes the spans and per-layer self times of the
   first traced round under perfbench/out, and prints the per-layer
   metrics.  The last line of standard output is one JSON
   object: {"correct", "attempted", "failed", "metrics"}. *)

let workloads = [ Fs_work.stream; Fs_work.meta; Ctrl_work.workload; Registry_work.workload ]

let usage () =
  prerr_endline
    "usage: perfbench --workload fs-stream|fs-meta|ctrl-churn|registry --seed N --seconds S --trace 0|1";
  exit 2

type args = { workload : Work.workload; seed : int; seconds : float; trace : bool }

let out_dir = "perfbench/out"

let parse_args () =
  let workload = ref None and seed = ref None and seconds = ref None and trace = ref None in
  let rec go = function
    | "--workload" :: w :: tl ->
        workload := List.find_opt (fun x -> x.Work.name = w) workloads;
        if !workload = None then usage ();
        go tl
    | "--seed" :: n :: tl ->
        seed := int_of_string_opt n;
        go tl
    | "--seconds" :: n :: tl ->
        seconds := float_of_string_opt n;
        go tl
    | "--trace" :: ("0" | "1" as t) :: tl ->
        trace := Some (t = "1");
        go tl
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  match (!workload, !seed, !seconds, !trace) with
  | Some workload, Some seed, Some seconds, Some trace when seconds > 0. ->
      { workload; seed; seconds; trace }
  | _ -> usage ()

(* --- the run ---------------------------------------------------------------- *)

let same_round (a : Work.round) (b : Work.round) =
  if a.inputs <> b.inputs then Work.wrong "one seed generated different inputs";
  if a.outputs <> b.outputs then Work.wrong "one seed produced different outputs";
  if a.fingerprint <> b.fingerprint then
    Work.wrong "virtual-clock samples or program counters differ between rounds of one seed"

(* A workload with distinct rounds repeats round 0 once more at the end.
   In a traced run the repeat is traced, so it also checks that tracing
   leaves round 0 unchanged. *)
let repeat_first (a : args) (first : Work.round) =
  if a.workload.distinct then
    let tracer = if a.trace then Some (Spans.create ()) else None in
    same_round first (a.workload.round ~seed:a.seed ~index:0 ~twin:false ~tracer)

(* The extra round: another seed changes the inputs and passes every check. *)
let other_seed (a : args) (first : Work.round) =
  let r = a.workload.round ~seed:(a.seed + 1) ~index:0 ~twin:false ~tracer:None in
  if r.inputs = first.inputs then Work.wrong "seed %d and seed %d generated the same inputs" a.seed (a.seed + 1);
  if r.samples.Measure.failed > 0 then Work.wrong "%d operations failed at seed %d" r.samples.failed (a.seed + 1)

let ops (r : Work.round) = r.samples.Measure.host.Measure.n

type metric = string * float * string

let us ns = float_of_int ns /. 1e3

(* A round as the runner saw it: the workload's result, and the factor
   that puts its host times on the reference scale. *)
type run_round = { round : Work.round; scale : float }

(* Host times in the JSON are reported as if the reference kernel
   ({!Measure.reference_ns}) took exactly this long. *)
let reference_scale_ns = 5e6

(* A JSON host time is the measured time multiplied by
   [reference_scale_ns / reference time measured around the round].  A
   shared host's speed drifts by up to 2x over minutes (one fixed loop
   took 49 to 90 ms on the 2.1 GHz Xeon this was tuned on), and the
   reference kernel, timed just before and after each round, follows that
   drift.  The table also prints the raw figures. *)
let scaled ~raw rr = if raw then 1. else rr.scale

(* End-to-end metrics from untraced rounds: the ones BENCHMARK.json names,
   then the ones printed in the table only.  Host figures are medians over
   rounds, so a burst of noise on a shared host moves one round, not the
   run.  Virtual per-operation percentiles sit on the cost model's fixed
   per-operation prices, so for some workloads they read the same for
   every seed; the JSON carries the virtual mean instead. *)
let end_to_end ~attempted ~failed ~peak_heap_words (rounds : run_round list) : metric list * metric list =
  let first = (List.hd rounds).round in
  let median f = Measure.median_float (List.map f rounds) in
  let host_p ~raw p rr = us (List.hd (Measure.percentiles rr.round.samples.host [ p ])) *. scaled ~raw rr in
  let ops_per_s ~raw rr = float_of_int (ops rr.round) /. (float_of_int rr.round.timed_ns *. scaled ~raw rr /. 1e9) in
  let setup_s ~raw rr = float_of_int rr.round.setup_ns *. scaled ~raw rr /. 1e9 in
  let v50, v99 =
    match Measure.percentiles first.samples.virt [ 50.; 99. ] with [ a; b ] -> (a, b) | _ -> assert false
  in
  let bytes_per_word = float_of_int (Sys.word_size / 8) in
  let alloc_kb rr = rr.round.alloc_words *. bytes_per_word /. 1024. /. float_of_int (ops rr.round) in
  ( [
      ("ops_per_s", median (ops_per_s ~raw:false), "ops/s");
      ("op_p50_us", median (host_p ~raw:false 50.), "us");
      ("op_p99_us", median (host_p ~raw:false 99.), "us");
      ("virt_ops_per_s", float_of_int (ops first) /. (float_of_int first.virt_ns /. 1e9), "ops/s");
      ("virt_op_mean_us", float_of_int (Measure.sum first.samples.virt) /. 1e3 /. float_of_int (ops first), "us");
      ("overhead_x", Option.value first.overhead ~default:nan, "ratio");
      ("alloc_kb_per_op", median alloc_kb, "KiB");
      ("peak_heap_mb", float_of_int peak_heap_words *. bytes_per_word /. 1048576., "MiB");
      ("setup_s", median (setup_s ~raw:false), "s");
    ],
    [
      ("raw_ops_per_s", median (ops_per_s ~raw:true), "ops/s");
      ("raw_op_p50_us", median (host_p ~raw:true 50.), "us");
      ("raw_op_p99_us", median (host_p ~raw:true 99.), "us");
      ("raw_setup_s", median (setup_s ~raw:true), "s");
      ("virt_op_p50_us", us v50, "us");
      ("virt_op_p99_us", us v99, "us");
      ("error_rate", float_of_int failed /. float_of_int (max 1 attempted), "fraction");
    ] )

(* --- per-layer metrics from the traced run ---------------------------------- *)

let os_calls = [ "open"; "read"; "write"; "fsync"; "close"; "mkdir"; "create"; "stat"; "readdir"; "rename"; "unlink" ]
let ctrl_verbs = [ "create"; "exec"; "stat"; "detach" ]
let layers = [ "os"; "fuse"; "cntrfs"; "vfs"; "ctrl"; "proxy"; "runtime"; "image"; "slim"; "sched" ]

(* Program counters every workload reports (0 where it does not reach). *)
let counter_units =
  [
    ("os.syscall.count", "count"); ("os.context_switches", "count");
    ("fuse.req.count", "count"); ("fuse.round_trips", "count"); ("fuse.bytes.copied", "B");
    ("fuse.bytes.spliced", "B"); ("fuse.passthrough.reads", "count"); ("fuse.dentry.hit_ratio", "ratio");
    ("fuse.readdirplus.entries", "count"); ("fuse.queue.wait_us.mean", "us"); ("fuse.inflight.max", "count");
    ("cntrfs.lookup.count", "count"); ("cntrfs.lookup.amplification", "ratio");
    ("cntrfs.lookup.backing_ops", "count"); ("cntrfs.handle_cache.hit_ratio", "ratio");
    ("cntrfs.read.bytes", "B"); ("cntrfs.write.bytes", "B"); ("cntrfs.worker.busy_ns", "ns");
    ("vfs.page_cache.fuse.hit_ratio", "ratio"); ("vfs.page_cache.fuse.evictions", "count");
    ("vfs.page_cache.hit_ratio", "ratio"); ("vfs.disk.read_bytes", "B"); ("vfs.disk.write_bytes", "B");
    ("sched.steals", "count"); ("sched.local_hits", "count"); ("sched.steal_fails", "count");
    ("ctrl.queue.wait_us.mean", "us"); ("ctrl.rpc.calls", "count"); ("ctrl.sessions.rejected", "count");
    ("ctrl.wire.batches", "count"); ("ctrl.wire.pipelined.max", "count"); ("ctrl.wire.stalls", "count");
    ("os.ns.setns", "count"); ("os.ns.unshare", "count"); ("os.proc.forks", "count");
    ("proxy.fwd.rpc.bytes.c2b", "B"); ("proxy.fwd.rpc.bytes.b2c", "B");
    ("registry.bytes_transferred", "B"); ("store.dedup_ratio", "ratio"); ("store.chunks.unique", "count");
    ("store.bytes.physical", "B"); ("slim.sweep.virt_us", "us");
    ("fuse_stack.virt_share", "ratio"); ("fuse_stack.host_share", "ratio");
  ]

let per_layer ~(untraced : run_round list) ~(traced : run_round list) ~gc ~summary : metric list =
  let first = (List.hd untraced).round in
  let layer_tbl, names = summary in
  (* mean host us, virtual us and KiB allocated per call of [name] *)
  let name_metrics name =
    match Hashtbl.find_opt names name with
    | None -> (0., 0., 0.)
    | Some n ->
        let calls = float_of_int n.Spans.n_calls in
        ( float_of_int n.Spans.n_host /. 1e3 /. calls,
          float_of_int n.Spans.n_virt /. 1e3 /. calls,
          n.Spans.n_alloc_words *. float_of_int (Sys.word_size / 8) /. 1024. /. calls )
  in
  let calls_of prefix list =
    List.concat_map
      (fun c ->
        let h, v, a = name_metrics (prefix ^ "." ^ c) in
        [
          (Printf.sprintf "%s.%s.host_us" prefix c, h, "us");
          (Printf.sprintf "%s.%s.virt_us" prefix c, v, "us");
          (Printf.sprintf "%s.%s.alloc_kb" prefix c, a, "KiB");
        ])
      list
  in
  let counter name = Option.value (List.assoc_opt name first.counters) ~default:0. in
  let wc, _, _ = name_metrics "runtime.world_create" in
  let rc_h, _, rc_a = name_metrics "runtime.run_container" in
  let push_h, _, push_a = name_metrics "registry.push" in
  let pull_h, pull_v, _ = name_metrics "registry.pull" in
  let part_h, _, part_a = name_metrics "slim.partition" in
  let median_timed rs = Measure.median_float (List.map (fun rr -> float_of_int rr.round.timed_ns *. rr.scale) rs) in
  let minor, major, major_words = gc in
  calls_of "os" os_calls
  @ List.map (fun (n, unit) -> (n, counter n, unit)) counter_units
  @ calls_of "ctrl" ctrl_verbs
  @ [
      ("runtime.world_create.host_ms", wc /. 1e3, "ms");
      ("runtime.run_container.host_us", rc_h, "us");
      ("runtime.run_container.alloc_kb", rc_a, "KiB");
      ("registry.push.host_us", push_h, "us");
      ("registry.push.alloc_kb", push_a, "KiB");
      ("registry.pull.host_us", pull_h, "us");
      ("registry.pull.virt_us", pull_v, "us");
      ("slim.partition.host_us", part_h, "us");
      ("slim.partition.alloc_kb", part_a, "KiB");
      ("gc.minor_collections", minor, "count");
      ("gc.major_collections", major, "count");
      ("gc.major_words", major_words, "count");
      ("trace.overhead_pct", 100. *. ((median_timed traced /. median_timed untraced) -. 1.), "%");
    ]
  @ List.concat_map
      (fun l ->
        let host, virt =
          match Hashtbl.find_opt layer_tbl l with
          | Some t -> (float_of_int t.Spans.l_host_self /. 1e6, float_of_int t.Spans.l_virt_self /. 1e6)
          | None -> (0., 0.)
        in
        [ (Printf.sprintf "self.%s.host_ms" l, host, "ms"); (Printf.sprintf "self.%s.virt_ms" l, virt, "ms") ])
      layers

(* The per-layer self-time summary on both clocks, and every per-name
   inclusive total, as a JSON file beside the spans. *)
let write_summary path (layer_tbl, names) =
  let oc = open_out path in
  let rows tbl f = Hashtbl.fold (fun k v acc -> f k v :: acc) tbl [] |> List.sort compare |> String.concat ",\n    " in
  Printf.fprintf oc "{\n  \"layers\": {\n    %s\n  },\n  \"calls\": {\n    %s\n  }\n}\n"
    (rows layer_tbl (fun l t ->
         Printf.sprintf "\"%s\": {\"spans\": %d, \"host_self_ns\": %d, \"virt_self_ns\": %d}" l t.Spans.l_spans
           t.Spans.l_host_self t.Spans.l_virt_self))
    (rows names (fun n t ->
         Printf.sprintf "\"%s\": {\"calls\": %d, \"host_ns\": %d, \"virt_ns\": %d, \"alloc_words\": %.0f}" n
           t.Spans.n_calls t.Spans.n_host t.Spans.n_virt t.Spans.n_alloc_words));
  close_out oc

(* --- output ------------------------------------------------------------------ *)

let json_number v = if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v else Printf.sprintf "%.17g" v

let print_result ~correct ~attempted ~failed ?(extra = []) (metrics : metric list) =
  List.iter (fun (n, v, u) -> Printf.printf "  %-34s %18.6f %s\n" n v u) (metrics @ extra);
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!" correct attempted
    failed
    (String.concat ", "
       (List.map
          (fun (n, v, u) -> Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" n (json_number v) u)
          metrics))

let gc_counts () =
  let s = Gc.quick_stat () in
  (float_of_int s.Gc.minor_collections, float_of_int s.Gc.major_collections, s.Gc.major_words)

let () =
  let a = parse_args () in
  let deadline = Int64.add (Measure.now_ns ()) (Int64.of_float (a.seconds *. 1e9)) in
  let time_left () = Measure.now_ns () < deadline in
  let count = ref 0 in
  (* the next round; a workload without distinct rounds always runs round 0 *)
  let run ?tracer ~twin () =
    let index = if a.workload.distinct then !count else 0 in
    incr count;
    (* start every round from a collected heap, so the previous round's
       garbage is not collected inside this one's timed phase *)
    Gc.full_major ();
    let before = Measure.reference_ns () in
    let round = a.workload.round ~seed:a.seed ~index ~twin ~tracer in
    (* the reference is timed on a collected heap both times, so the
       round's own garbage and heap size do not move the scale *)
    Gc.full_major ();
    let reference = float_of_int (before + Measure.reference_ns ()) /. 2. in
    { round; scale = reference_scale_ns /. reference }
  in
  (* rounds of one index must agree exactly *)
  let check first rr = if not a.workload.distinct then same_round first rr.round in
  try
    let gc0 = gc_counts () in
    let first_rr = run ~twin:true () in
    let first = first_rr.round in
    let gc =
      let (a0, b0, c0), (a1, b1, c1) = (gc0, gc_counts ()) in
      (a1 -. a0, b1 -. b0, c1 -. c0)
    in
    (* the footprint of one round (with its twin), whatever the run length *)
    let peak_heap_words = (Gc.quick_stat ()).Gc.top_heap_words in
    let rounds = ref [ first_rr ] and traced = ref [] in
    let tally () =
      let all = !rounds @ !traced in
      ( List.fold_left (fun acc rr -> acc + ops rr.round) 0 all,
        List.fold_left (fun acc rr -> acc + rr.round.samples.Measure.failed) 0 all )
    in
    let report, extra =
      if not a.trace then begin
        while time_left () || List.length !rounds < 3 do
          let r = run ~twin:false () in
          check first r;
          rounds := r :: !rounds
        done;
        let attempted, failed = tally () in
        end_to_end ~attempted ~failed ~peak_heap_words (List.rev !rounds)
      end
      else begin
        let spans = Spans.create () in
        let traced_round () =
          let tracer = if !traced = [] then spans else Spans.create () in
          let r = run ~tracer ~twin:false () in
          check first r;
          traced := r :: !traced
        in
        traced_round ();
        while time_left () do
          let r = run ~twin:false () in
          check first r;
          rounds := r :: !rounds;
          if time_left () then traced_round ()
        done;
        (try Sys.mkdir out_dir 0o755 with Sys_error _ -> ());
        let base = Filename.concat out_dir (Printf.sprintf "%s-seed%d" a.workload.name a.seed) in
        let summary = Spans.summarize spans in
        Spans.write_jsonl spans (base ^ ".spans.jsonl");
        write_summary (base ^ ".layers.json") summary;
        (per_layer ~untraced:(List.rev !rounds) ~traced:!traced ~gc ~summary, [])
      end
    in
    repeat_first a first;
    other_seed a first;
    let attempted, failed = tally () in
    Printf.printf "%s seed %d: %d untraced + %d traced rounds, %d operations, %d to %d samples per round\n"
      a.workload.name a.seed (List.length !rounds) (List.length !traced) attempted
      (List.fold_left (fun acc rr -> min acc (ops rr.round)) max_int !rounds)
      (List.fold_left (fun acc rr -> max acc (ops rr.round)) 0 !rounds);
    let per_round f = String.concat " " (List.rev_map (fun rr -> f rr.round) !rounds) in
    Printf.printf "  round ops/s (raw): %s\n"
      (per_round (fun r -> Printf.sprintf "%.0f" (float_of_int (ops r) /. (float_of_int r.timed_ns /. 1e9))));
    Printf.printf "  round setup ms (raw): %s\n" (per_round (fun r -> Printf.sprintf "%.1f" (float_of_int r.setup_ns /. 1e6)));
    Printf.printf "  round host scale: %s\n"
      (String.concat " " (List.rev_map (fun rr -> Printf.sprintf "%.3f" rr.scale) !rounds));
    print_result ~correct:(failed = 0) ~attempted ~failed ~extra report;
    if failed > 0 then exit 1
  with Work.Wrong msg ->
    Printf.eprintf "perfbench: %s: wrong output: %s\n%!" a.workload.name msg;
    exit 1
