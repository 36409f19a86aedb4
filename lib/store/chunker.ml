(* Content-defined chunking (gear rolling hash, FastCDC-style min/avg/max
   bounds).  Chunk boundaries depend only on the bytes, not on the
   container, so identical runs of bytes inside different blobs always cut
   into identical chunks — the property the dedup store is built on.

   Two details matter for the rest of the system:

   - The rolling hash is NOT reset at cut points, so the cut decision at
     byte [p] depends only on the last [mask_bits] bytes (each byte's gear
     value is shifted left once per subsequent byte, so it leaves the low
     [mask_bits] bits after [mask_bits] steps).  A single-byte edit can
     therefore only perturb cuts in a bounded window, and chunk streams
     re-synchronize — the qcheck property tests pin this.

   - Cut positions are prefix-stable: the cuts of [s] within [0, n) equal
     the cuts of any extension of [s] within [0, n).

   [chunks_prefixed_uniform] chunks descriptor-backed content (a short
   header followed by megabytes of one repeated pad byte) without
   materializing it.  Once the rolling window has passed the header, the
   cut predicate is constant, so it scans only the header plus one window
   and places every later cut arithmetically: O(prefix + mask_bits +
   chunks), with no settling sample and nothing rendered beyond the
   chunks that touch the header. *)

open Repro_util

type params = {
  min_size : int; (* no cut before this many bytes into a chunk *)
  mask_bits : int; (* cut when the low mask_bits bits of the hash are zero *)
  max_size : int; (* forced cut at this size *)
}

let default_params = { min_size = 4096; mask_bits = 13; max_size = 65536 }

type chunk = { digest : string; size : int }

(* Deterministic gear table: one SplitMix64 draw per byte value. *)
let gear =
  lazy
    (let rng = Rng.create ~seed:0x6765_6172 in
     Array.init 256 (fun _ -> Int64.to_int (Rng.next_int64 rng) land max_int))

let validate p =
  if p.min_size <= 0 || p.max_size <= p.min_size || p.mask_bits <= 0 then
    invalid_arg "Chunker: need 0 < min_size < max_size and mask_bits > 0"

(* The gear loop over the bytes [byte 0 .. byte (n - 1)]: calls [cut pos]
   at every cut position below or at [n], and returns whether the hash
   after the last byte qualifies as a cut, and the last cut (0 if none). *)
let scan params ~byte n cut =
  let g = Lazy.force gear in
  let cutmask = (1 lsl params.mask_bits) - 1 in
  let start = ref 0 in
  let h = ref 0 in
  for i = 0 to n - 1 do
    h := ((!h lsl 1) + g.(Char.code (byte i))) land max_int;
    let pos = i + 1 in
    if
      (pos - !start >= params.min_size && !h land cutmask = 0)
      || pos - !start = params.max_size
    then begin
      cut pos;
      start := pos
    end
  done;
  (!h land cutmask = 0, !start)

(* Exclusive end offsets of every chunk of [s]; the final offset is
   [String.length s].  Empty string -> []. *)
let cut_points ?(params = default_params) s =
  validate params;
  let n = String.length s in
  let cuts = ref [] in
  let _, start = scan params ~byte:(String.unsafe_get s) n (fun pos -> cuts := pos :: !cuts) in
  if n > 0 && start < n then cuts := n :: !cuts;
  List.rev !cuts

let split ?params s =
  let cuts = cut_points ?params s in
  let chunks, _ =
    List.fold_left (fun (acc, prev) cut -> (String.sub s prev (cut - prev) :: acc, cut)) ([], 0) cuts
  in
  List.rev chunks

let chunk_of_bytes b = { digest = Digest.string b; size = String.length b }

let chunks_of_string ?params s = List.map chunk_of_bytes (split ?params s)

(* Chunks lying wholly inside a uniform fill depend only on (fill, len),
   and a fill tail is one period repeated plus a remainder, so their
   descriptors are memoized process-wide: a multi-megabyte fill costs a
   few digests of at most [max_size] bytes once ever, and list cells per
   call. *)
let uniform_memo : (char * int, chunk) Hashtbl.t = Hashtbl.create 64

let uniform_chunk fill len =
  match Hashtbl.find_opt uniform_memo (fill, len) with
  | Some c -> c
  | None ->
      let c = chunk_of_bytes (String.make len fill) in
      Hashtbl.replace uniform_memo (fill, len) c;
      c

(* [chunks_prefixed_uniform ~prefix ~fill ~total] == [chunks_of_string
   (prefix ^ String.make (total - length prefix) fill)] in
   O(prefix + mask_bits + chunks) instead of O(total).

   The gear loop runs over the virtual bytes [prefix.[i]] then [fill], but
   only up to [steady = plen + mask_bits]: from there on the low
   [mask_bits] hash bits are those of pure fill, so the cut predicate is a
   constant.  Either every position qualifies (cuts every [min_size] from
   the last scanned cut) or none does (forced cuts every [max_size]).
   Only chunks touching the prefix are rendered, each at most [max_size]
   bytes. *)
let chunks_prefixed_uniform ?(params = default_params) ~prefix ~fill ~total () =
  validate params;
  let plen = String.length prefix in
  if total < plen then invalid_arg "Chunker.chunks_prefixed_uniform: total < prefix";
  let byte i = if i < plen then String.unsafe_get prefix i else fill in
  let chunks = ref [] in
  let start = ref 0 in
  let emit cut =
    let len = cut - !start in
    let c =
      if !start >= plen then uniform_chunk fill len
      else chunk_of_bytes (String.init len (fun k -> byte (!start + k)))
    in
    chunks := c :: !chunks;
    start := cut
  in
  let steady = min total (plen + params.mask_bits) in
  let qualifies, _ = scan params ~byte steady emit in
  (* [start + step] lies beyond [steady] in both arms: the scan leaves
     [steady - start < max_size], and had [steady] qualified at least
     [min_size] past [start] the scan would have cut there.  So this loop
     only runs past the scan, where the predicate is constant. *)
  let step = if qualifies then params.min_size else params.max_size in
  while !start + step <= total do
    emit (!start + step)
  done;
  if !start < total then emit total;
  List.rev !chunks

let manifest_bytes chunks = List.fold_left (fun acc c -> acc + c.size) 0 chunks
