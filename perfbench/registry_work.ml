(* registry: push a seeded subset of a Family population, in seeded order,
   into a content-addressed Registry; pull every image into one warm host
   store, so later pulls move only the chunks still missing; then slim
   every image with Partition.slim on a Sweep.run work-stealing pool.  One
   operation is one push, one pull or one slim of one image.

   Chunk manifests are memoized process-wide (Image.Blobs), so a round
   that re-pushed an earlier round's images would time only memo hits.
   Round [index] therefore draws each family's members from its own
   block of member numbers: every round pushes content the process has
   not chunked yet, as a registry-scale push of distinct images does.
   What every member of a family shares (the distro and runtime layers,
   the family binary) is chunked once per process, before round 0 and
   outside any timing, so round 0 costs what every later round costs. *)

open Repro_util
open Repro_image
open Repro_slim
open Repro_store

let members = 250  (* per family: a 5000-image population, as e5r's *)
let per_family = 20
let workers = 2

(* The sweep's modelled per-image cost, as e5r charges it. *)
let cost_ns image = 150_000 + (Image.file_count image * 2_000) + (Image.effective_size image / 256)

type plan = { push_order : Image.t array; pull_order : int array }

(* Member numbers from here up are never drawn by a round. *)
let warm_first = 9000

(* Push one member per family, from above every round's blocks, into a
   throwaway registry: this chunks what the family's members share. *)
let warm =
  lazy
    (let reg = Registry.create ~metrics:(Repro_obs.Metrics.create ()) ~clock:(Clock.create ()) () in
     List.iter (fun spec -> Registry.push reg (Family.member spec ~members warm_first)) Family.specs)

(* Round [index] picks [per_family] of the member numbers in block
   [index * 2 * per_family, (index + 1) * 2 * per_family). *)
let plan seed index =
  if (index + 1) * 2 * per_family > warm_first then Work.wrong "registry round %d reaches the warm-up members" index;
  let rng = Rng.create ~seed:((seed * 7919) + index) in
  let chosen =
    List.concat_map
      (fun spec ->
        let idx = Array.init (2 * per_family) (fun j -> (index * 2 * per_family) + j) in
        Rng.shuffle rng idx;
        List.init per_family (fun j -> Family.member spec ~members idx.(j)))
      Family.specs
    |> Array.of_list
  in
  Rng.shuffle rng chosen;
  let pull_order = Array.init (Array.length chosen) Fun.id in
  Rng.shuffle rng pull_order;
  { push_order = chosen; pull_order }

let inputs p =
  Work.digest_strings
    (Array.to_list (Array.map Image.ref_ p.push_order)
    @ Array.to_list (Array.map string_of_int p.pull_order))

(* Each family's first image in push order: its static slim must still
   run its entrypoint. *)
let validate_families p =
  let world = Repro_cntr.Testbed.create () in
  let seen = Hashtbl.create 32 in
  Array.iter
    (fun image ->
      let family =
        match String.rindex_opt image.Image.name '-' with
        | Some i -> String.sub image.Image.name 0 i
        | None -> image.Image.name
      in
      if not (Hashtbl.mem seen family) then begin
        Hashtbl.replace seen family ();
        let _, slim = Partition.slim image in
        match Slimmer.validate ~world slim with
        | Ok true -> ()
        | Ok false -> Work.wrong "static slim of %s fails validation" (Image.ref_ image)
        | Error e -> Work.wrong "validating %s: %s" (Image.ref_ image) (Errno.to_string e)
      end)
    p.push_order;
  if Hashtbl.length seen <> List.length Family.specs then
    Work.wrong "%d families validated, want %d" (Hashtbl.length seen) (List.length Family.specs)

let round ~seed ~index ~twin ~tracer =
  let wrap ?op ~layer ~name clock f = Spans.wrap tracer ?op ~layer ~name clock f in
  Lazy.force warm;
  let (p, metrics, reg, clock), setup_ns, _ =
    Work.timed (fun () ->
        let p = plan seed index in
        let clock = Clock.create () in
        let metrics = Repro_obs.Metrics.create () in
        (p, metrics, Registry.create ~metrics ~clock (), clock))
  in
  let s = Measure.samples () in
  let id = ref 0 in
  let op layer name clock f =
    incr id;
    Work.op s clock (fun () -> wrap ~op:!id ~layer ~name clock f)
  in
  let sweep_clock = Clock.create () in
  let pulls_virt = ref 0 in
  let (stats, reports), timed_ns, alloc_words =
    Work.timed (fun () ->
        Array.iter
          (fun image -> ignore (op "image" "registry.push" clock (fun () -> Ok (Registry.push reg image))))
          p.push_order;
        let v0 = Clock.now_ns clock in
        Array.iter
          (fun i ->
            let pushed = p.push_order.(i) in
            match op "image" "registry.pull" clock (fun () -> Registry.pull reg (Image.ref_ pushed)) with
            | Ok (image, _) when Image.ref_ image = Image.ref_ pushed && Image.size image = Image.size pushed -> ()
            | Ok _ -> Measure.fail s
            | Error _ -> ())
          p.pull_order;
        pulls_virt := Int64.to_int (Int64.sub (Clock.now_ns clock) v0);
        wrap ~op:0 ~layer:"sched" ~name:"sched.sweep" sweep_clock (fun () ->
            Sweep.run ~workers ~metrics ~clock:sweep_clock ~images:(Array.to_list p.push_order) ~cost_ns
              ~f:(fun image ->
                incr id;
                let h0 = Measure.now_ns () in
                let r =
                  wrap ~op:!id ~layer:"slim" ~name:"slim.partition" sweep_clock (fun () ->
                      fst (Partition.slim image))
                in
                Measure.record s ~host:(Measure.since_ns h0) ~virt:(cost_ns image);
                r)
              ()))
  in
  let store = Registry.store reg in
  if Store.dedup_ratio store <= 1. then Work.wrong "store.dedup_ratio %.3f <= 1" (Store.dedup_ratio store);
  if List.length reports <> Array.length p.push_order then Work.wrong "sweep returned %d reports" (List.length reports);
  let slimmed =
    List.map2
      (fun image r ->
        if r.Partition.p_image <> Image.ref_ image then Work.wrong "sweep result out of order";
        Printf.sprintf "%s %d %d" r.Partition.p_image r.Partition.p_slim_bytes r.Partition.p_slim_files)
      (Array.to_list p.push_order) reports
  in
  let counters =
    [
      ("registry.bytes_transferred", float_of_int (Registry.bytes_transferred reg));
      ("store.dedup_ratio", Store.dedup_ratio store);
      ("store.chunks.unique", float_of_int (Store.unique_chunks store));
      ("store.bytes.physical", float_of_int (Store.physical_bytes store));
      ("slim.sweep.virt_us", Int64.to_float stats.Sweep.sw_elapsed_ns /. 1e3);
      ("sched.steals", float_of_int stats.Sweep.sw_steals);
      ("sched.local_hits", float_of_int stats.Sweep.sw_local_hits);
      ("sched.steal_fails", float_of_int stats.Sweep.sw_steal_fails);
    ]
  in
  let fingerprint =
    Work.digest_strings
      [ Work.digest_vec s.Measure.virt; Work.registry_digest metrics; Int64.to_string stats.Sweep.sw_elapsed_ns ]
  in
  (* the twin: the same pulls, each into an emptied host store *)
  let overhead =
    if not twin then None
    else begin
      validate_families p;
      let v0 = Clock.now_ns clock in
      Array.iter
        (fun i ->
          Registry.drop_cache reg;
          ignore (Registry.pull reg (Image.ref_ p.push_order.(i))))
        p.pull_order;
      let cold_virt = Int64.to_int (Int64.sub (Clock.now_ns clock) v0) in
      Some (float_of_int !pulls_virt /. float_of_int (max 1 cold_virt))
    end
  in
  {
    Work.setup_ns;
    timed_ns;
    samples = s;
    virt_ns = !pulls_virt + Int64.to_int stats.Sweep.sw_elapsed_ns;
    alloc_words;
    inputs = inputs p;
    outputs = Work.digest_strings slimmed;
    fingerprint;
    counters;
    overhead;
  }

let workload = { Work.name = "registry"; distinct = true; round }
