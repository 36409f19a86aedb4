(* Span-based tracing on the virtual clock.  Instrumentation sites record
   (begin, end, attrs) events; the tracer counts them and forwards each to
   a pluggable sink when one is attached — in-memory for tests, JSON-lines
   for exports.  With no sink a span is never built.  Timestamps are
   supplied by the caller (its layer's virtual clock), so the tracer itself
   holds no clock and recording is deterministic. *)

type attr = string * string

type span = {
  sp_name : string;
  sp_begin_ns : int64;
  sp_end_ns : int64;
  sp_attrs : attr list;
}

type sink = span -> unit

type t = {
  mutable recorded : int; (* total spans ever recorded *)
  mutable sink : sink option;
}

let create () = { recorded = 0; sink = None }
let set_sink t sink = t.sink <- sink

let record t ~name ~begin_ns ~end_ns ?(attrs = []) () =
  t.recorded <- t.recorded + 1;
  match t.sink with
  | None -> ()
  | Some sink -> sink { sp_name = name; sp_begin_ns = begin_ns; sp_end_ns = end_ns; sp_attrs = attrs }

(* Time [f] on [clock] and record the span around it. *)
let with_span t ~clock ?attrs name f =
  let begin_ns = Repro_util.Clock.now_ns clock in
  let result = f () in
  record t ~name ~begin_ns ~end_ns:(Repro_util.Clock.now_ns clock) ?attrs ();
  result

let recorded t = t.recorded

(* --- sinks --------------------------------------------------------------- *)

(* JSON-lines export: one compact span object per line. *)
let buffer_sink buf s =
  let open Repro_util in
  Buffer.add_string buf
    (Jsonx.to_string
       (Jsonx.Obj
          [
            ("name", Jsonx.Str s.sp_name);
            ("begin_ns", Jsonx.Int (Int64.to_int s.sp_begin_ns));
            ("end_ns", Jsonx.Int (Int64.to_int s.sp_end_ns));
            ("attrs", Jsonx.Obj (List.map (fun (k, v) -> (k, Jsonx.Str v)) s.sp_attrs));
          ]));
  Buffer.add_char buf '\n'

(* In-memory sink for tests: returns the sink and a reader for everything
   it has seen, oldest first. *)
let memory_sink () =
  let seen = ref [] in
  let sink span = seen := span :: !seen in
  (sink, fun () -> List.rev !seen)
