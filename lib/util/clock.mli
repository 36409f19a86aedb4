(** Virtual clock.  All simulated work advances this clock through the cost
    model instead of consuming wall time, making every benchmark
    deterministic and fast regardless of the simulated data volume. *)

type t

val create : unit -> t

(** Nanoseconds of virtual time since the world was created. *)
val now_ns : t -> int64

(** Advance the clock by [ns] nanoseconds of simulated work (non-negative
    amounts only; negatives are ignored). *)
val consume : t -> int64 -> unit

val consume_int : t -> int -> unit

(** Warp to an absolute time — may move backwards.  Reserved for the
    discrete-event scheduler, which multiplexes per-task timelines onto the
    one clock; everything else should [consume]. *)
val set_ns : t -> int64 -> unit

(** Virtual time consumed by running [f]. *)
val time : t -> (unit -> 'a) -> 'a * int64

val pp_duration : Format.formatter -> int64 -> unit
