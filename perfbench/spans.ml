(* The traced run's span recorder.  Spans are opened and closed by the
   benchmark's own code around calls into each layer's public functions
   (nothing inside lib/ is instrumented) and stay in memory until the run
   ends.

   A span has a name, a layer, host and virtual start/end, a parent and
   the operation id shared by every span of one operation.  Spans are
   nested per scheduler fiber; a span opened in a fiber with no open span
   of its own (a FUSE server worker serving a request) takes as parent the
   most recently opened span still open anywhere — exact with one client
   task, approximate when two clients wait at once.

   Self time:
   - host: one host thread runs every fiber, so each interval between two
     span events is charged to the innermost open span of the fiber that
     produced the earlier event.  Layer host self times therefore add up
     exactly to the host time spent inside spans.
   - virtual: each fiber has its own timeline on the shared clock, so a
     span's virtual self time is its duration minus the part of it that
     its children cover. *)

open Repro_util

type span = {
  id : int;
  parent : int;  (** -1 for a root span *)
  op : int;
  name : string;
  layer : string;
  fiber : int;
  clock : Clock.t;
  h0 : int64;
  v0 : int64;
  a0 : float;
  mutable h1 : int64;
  mutable v1 : int64;
  mutable alloc_words : float;
  mutable host_self : int;
}

type t = {
  mutable spans : span list;  (** every closed span, newest first *)
  mutable next : int;
  mutable open_ : span list;  (** open spans, most recently opened first *)
  mutable last_event : int64;
  mutable last_fiber : int;
}

let create () =
  { spans = []; next = 0; open_ = []; last_event = Measure.now_ns (); last_fiber = 0 }

let innermost t fiber = List.find_opt (fun s -> s.fiber = fiber) t.open_

(* Charge the host time since the previous event, then move the cursor. *)
let tick t now =
  let slice = Int64.to_int (Int64.sub now t.last_event) in
  (match innermost t t.last_fiber with
  | Some s -> s.host_self <- s.host_self + slice
  | None -> (
      match t.open_ with s :: _ -> s.host_self <- s.host_self + slice | [] -> ()));
  t.last_event <- now

let enter t ?op ~layer ~name clock =
  let now = Measure.now_ns () in
  tick t now;
  let fiber = Repro_sched.Sched.current_id () in
  let parent =
    match op with
    | Some _ -> None
    | None -> (
        match innermost t fiber with
        | Some p -> Some p
        | None -> ( match t.open_ with p :: _ -> Some p | [] -> None))
  in
  let s =
    {
      id = t.next;
      parent = (match parent with Some p -> p.id | None -> -1);
      op =
        (match (op, parent) with
        | Some o, _ -> o
        | None, Some p -> p.op
        | None, None -> -1);
      name;
      layer;
      fiber;
      clock;
      h0 = now;
      v0 = Clock.now_ns clock;
      a0 = Measure.alloc_words ();
      h1 = now;
      v1 = 0L;
      alloc_words = 0.;
      host_self = 0;
    }
  in
  t.next <- t.next + 1;
  t.open_ <- s :: t.open_;
  t.last_fiber <- fiber;
  s

let exit_ t s =
  s.v1 <- Clock.now_ns s.clock;
  s.alloc_words <- Measure.alloc_words () -. s.a0;
  let now = Measure.now_ns () in
  tick t now;
  s.h1 <- now;
  t.open_ <- List.filter (fun o -> o != s) t.open_;
  t.spans <- s :: t.spans;
  t.last_fiber <- Repro_sched.Sched.current_id ()

let with_span t ?op ~layer ~name clock f =
  let s = enter t ?op ~layer ~name clock in
  match f () with
  | v ->
      exit_ t s;
      v
  | exception e ->
      exit_ t s;
      raise e

(* The optional-tracer form every workload calls: no tracer, no cost
   beyond one match. *)
let wrap tr ?op ~layer ~name clock f =
  match tr with None -> f () | Some t -> with_span t ?op ~layer ~name clock f

(* --- summaries ------------------------------------------------------------- *)

(* Length of the union of [intervals] clipped to [lo, hi]. *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = max a lo and b = min b hi in
        if b > a then Some (a, b) else None)
      intervals
    |> List.sort compare
  in
  let total, last =
    List.fold_left
      (fun (total, cur) (a, b) ->
        match cur with
        | None -> (total, Some (a, b))
        | Some (ca, cb) -> if a <= cb then (total, Some (ca, max cb b)) else (total + (cb - ca), Some (a, b)))
      (0, None) clipped
  in
  match last with None -> total | Some (a, b) -> total + (b - a)

type layer_total = {
  mutable l_spans : int;
  mutable l_host_self : int;  (** ns *)
  mutable l_virt_self : int;  (** ns *)
}

type name_total = {
  mutable n_calls : int;
  mutable n_host : int;  (** inclusive ns *)
  mutable n_virt : int;  (** inclusive ns *)
  mutable n_alloc_words : float;
}

let virt_dur s = Int64.to_int (Int64.sub s.v1 s.v0)

(* Per-layer self time on both clocks and per-name inclusive totals. *)
let summarize t =
  let children = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace children s.parent
          ((Int64.to_int s.v0, Int64.to_int s.v1)
          :: Option.value (Hashtbl.find_opt children s.parent) ~default:[]))
    t.spans;
  let layers = Hashtbl.create 16 and names = Hashtbl.create 64 in
  List.iter
    (fun s ->
      let l =
        match Hashtbl.find_opt layers s.layer with
        | Some l -> l
        | None ->
            let l = { l_spans = 0; l_host_self = 0; l_virt_self = 0 } in
            Hashtbl.replace layers s.layer l;
            l
      in
      let lo = Int64.to_int s.v0 and hi = Int64.to_int s.v1 in
      let kids = Option.value (Hashtbl.find_opt children s.id) ~default:[] in
      l.l_spans <- l.l_spans + 1;
      l.l_host_self <- l.l_host_self + s.host_self;
      l.l_virt_self <- l.l_virt_self + max 0 (hi - lo - covered ~lo ~hi kids);
      let n =
        match Hashtbl.find_opt names s.name with
        | Some n -> n
        | None ->
            let n = { n_calls = 0; n_host = 0; n_virt = 0; n_alloc_words = 0. } in
            Hashtbl.replace names s.name n;
            n
      in
      n.n_calls <- n.n_calls + 1;
      n.n_host <- n.n_host + Int64.to_int (Int64.sub s.h1 s.h0);
      n.n_virt <- n.n_virt + virt_dur s;
      n.n_alloc_words <- n.n_alloc_words +. s.alloc_words)
    t.spans;
  (layers, names)

let span_json s =
  Printf.sprintf
    "{\"id\":%d,\"parent\":%d,\"op\":%d,\"name\":\"%s\",\"layer\":\"%s\",\"fiber\":%d,\"host_start_ns\":%Ld,\"host_end_ns\":%Ld,\"virt_start_ns\":%Ld,\"virt_end_ns\":%Ld,\"host_self_ns\":%d,\"alloc_words\":%.0f}"
    s.id s.parent s.op s.name s.layer s.fiber s.h0 s.h1 s.v0 s.v1 s.host_self s.alloc_words

(* Spans as JSON lines, in opening order. *)
let write_jsonl t path =
  let oc = open_out path in
  List.iter
    (fun s -> output_string oc (span_json s ^ "\n"))
    (List.sort (fun a b -> compare a.id b.id) t.spans);
  close_out oc
