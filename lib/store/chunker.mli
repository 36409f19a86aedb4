(** Content-defined chunking: a gear rolling hash with FastCDC-style
    min/avg/max bounds.  Boundaries depend only on the bytes, so identical
    byte runs in different blobs cut into identical chunks — the property
    the dedup {!Store} is built on.  Deterministic: the gear table is
    seeded, and the hash is never reset at cut points, so a single-byte
    edit perturbs only a bounded window of chunks. *)

(** Chunking bounds.  Every [?params] below defaults to 4 KiB min /
    13 mask bits (~8 KiB expected) / 64 KiB max. *)
type params = {
  min_size : int;  (** no cut before this many bytes into a chunk *)
  mask_bits : int;  (** cut when the low [mask_bits] hash bits are zero *)
  max_size : int;  (** forced cut at this size *)
}

(** A chunk descriptor: the digest of the chunk's bytes and its size.
    Payloads themselves are never stored — the simulated world keeps
    content as descriptors. *)
type chunk = { digest : string; size : int }

(** Exclusive end offset of every chunk; the last element is the string
    length.  [[]] for the empty string.  Prefix-stable: cuts of [s] below
    [n] equal the cuts of any extension of [s] below [n]. *)
val cut_points : ?params:params -> string -> int list

(** The chunk byte strings themselves; concatenating them yields the
    input. *)
val split : ?params:params -> string -> string list

val chunks_of_string : ?params:params -> string -> chunk list

(** [chunks_prefixed_uniform ~prefix ~fill ~total ()] equals
    [chunks_of_string (prefix ^ String.make (total - length prefix) fill)]
    but runs in O(prefix + mask_bits + chunks), whatever the fill length:
    the hash is scanned only until the rolling window has passed the
    prefix, after which the cut predicate is constant and the remaining
    cuts are placed arithmetically.  Only chunks touching the prefix are
    rendered and digested; chunks lying wholly in the fill come from a
    process-wide [(fill, length)] memo.  This is how multi-megabyte
    [Filler]/[Binary] descriptors are chunked without rendering them. *)
val chunks_prefixed_uniform :
  ?params:params -> prefix:string -> fill:char -> total:int -> unit -> chunk list

(** Sum of chunk sizes. *)
val manifest_bytes : chunk list -> int
