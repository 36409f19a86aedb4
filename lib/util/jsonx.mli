(** Minimal JSON value type with deterministic printers and a strict
    recursive-descent parser.  This is the one JSON codec of the tree: the
    control plane speaks JSON-RPC 2.0 over it, the metrics registry and the
    span tracer export through it, and the bench harness writes its
    baseline tables with it.  Byte-determinism of the printers is what
    makes those baselines diffable. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Dec of int * float
      (** [Dec (d, x)] prints [x] with exactly [d] decimals ([%.*f]); a
          non-finite [x] prints as [null].  For fixed-width report columns
          only: the parser never produces it, so it does not round-trip. *)
  | Str of string
  | List of t list
  | Obj of (string * t) list

val equal : t -> t -> bool

(** Compact rendering: no insignificant whitespace, object fields in the
    order given.  Integral floats print with a trailing [.0] so they
    round-trip as [Float]; non-finite floats render as [null]. *)
val to_string : t -> string

(** The table layout of the committed bench baselines.  A top-level object
    puts one field per line at 2-space indent, and a non-empty list
    directly under it puts one element per line at 4-space indent.
    Everything deeper renders inline with [", "] and [": "] separators.
    Any other top-level value renders inline the same way.  Escaping and
    numbers print exactly as in {!to_string}. *)
val to_string_table : t -> string

(** Strict parse of one JSON document (trailing garbage is an error).
    [Error msg] carries a byte offset for diagnostics. *)
val parse : string -> (t, string) result

(** {1 Accessors} — shallow, total helpers for picking apart params. *)

(** Field lookup on [Obj]; [None] on missing field or non-object. *)
val mem : t -> string -> t option

val list_ : t -> t list option

(** [field_str v k] is the string at field [k], if any, and friends. *)
val field_str : t -> string -> string option

val field_int : t -> string -> int option
val field_bool : t -> string -> bool option
