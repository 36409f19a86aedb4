(* Content descriptors -> chunk manifests, the bridge between the image
   substrate and the dedup store.

   Chunking is a pure function of the rendered bytes, so results are
   memoized process-wide by structural descriptor equality: the Top-50
   catalogue's 7-MB binaries are chunked once ever, not once per world.
   [Filler] and [Binary] render to (header +) a uniform pad, so they take
   {!Repro_store.Chunker.chunks_prefixed_uniform}, whose cost depends on
   the header and the chunk count, not on the pad length: they are never
   materialized, and a new [Filler] size costs a few list cells plus at
   most one digest of its remainder chunk. *)

open Repro_os
module Chunker = Repro_store.Chunker

let memo : (Content.t, Chunker.chunk list) Hashtbl.t = Hashtbl.create 1024

let content_chunks (c : Content.t) =
  match Hashtbl.find_opt memo c with
  | Some chunks -> chunks
  | None ->
      let chunks =
        match c with
        | Content.Literal s -> Chunker.chunks_of_string s
        | Content.Filler n -> Chunker.chunks_prefixed_uniform ~prefix:"" ~fill:'D' ~total:n ()
        | Content.Binary { prog; size } ->
            (* mirror Binfmt.make: "#!BIN <prog>\n" padded with 'x' *)
            let header = Binfmt.bin_prefix ^ prog ^ "\n" in
            let total = max size (String.length header) in
            Chunker.chunks_prefixed_uniform ~prefix:header ~fill:'x' ~total ()
      in
      Hashtbl.replace memo c chunks;
      chunks

(* A layer's manifest: entry chunks in entry order.  Directory and
   whiteout entries carry no bytes; symlinks carry their target. *)
let layer_chunks (layer : Layer.t) =
  List.concat_map
    (function
      | Layer.Dir _ | Layer.Whiteout _ -> []
      | Layer.File { content; _ } -> content_chunks content
      | Layer.Symlink { target; _ } -> Chunker.chunks_of_string target)
    layer.Layer.entries
