(** Span-based tracing on the virtual clock: [(begin, end, attrs)] events,
    counted and forwarded to a pluggable sink (in-memory for tests,
    JSON-lines for exports).  The tracer retains nothing, and with no sink
    attached a recorded span is only counted.  Timestamps come from the
    recording site's virtual clock; the tracer holds no clock of its own. *)

type attr = string * string

type span = {
  sp_name : string;
  sp_begin_ns : int64;
  sp_end_ns : int64;
  sp_attrs : attr list;
}

(** A sink sees every span recorded while it is attached. *)
type sink = span -> unit

type t

val create : unit -> t

val set_sink : t -> sink option -> unit

val record :
  t -> name:string -> begin_ns:int64 -> end_ns:int64 -> ?attrs:attr list -> unit -> unit

(** Time [f] on [clock] and record the span around it. *)
val with_span : t -> clock:Repro_util.Clock.t -> ?attrs:attr list -> string -> (unit -> 'a) -> 'a

(** Total spans ever recorded, with or without a sink. *)
val recorded : t -> int

(** JSON-lines export: append each span to a buffer as one compact JSON
    object [{"name", "begin_ns", "end_ns", "attrs"}] per line. *)
val buffer_sink : Buffer.t -> sink

(** In-memory sink plus a reader of everything it has seen, oldest
    first. *)
val memory_sink : unit -> sink * (unit -> span list)
