(* Static dependency-graph partitioning (Cimplifier-style): slim an image
   by walking its declared dependency graph instead of observing a run.
   Starting from the entrypoint binary, follow [<path>.deps] sidecars —
   `lib:` / `conf:` lines name single files, `data:` lines name whole
   directories — resolving symlinks along the way, then close over
   ancestor directories and the identity files shared with the dynamic
   strategy ({!Slimmer.closure}).

   The trade against fanotify tracing is the classic one: no container
   ever runs (so a whole registry can be partitioned offline, in
   parallel), but the keep-set is the *declared* closure, a superset of
   the observed working set — cold data directories ride along, so static
   reductions trail dynamic ones. *)

open Repro_util
open Repro_image

type report = {
  p_image : string;  (** "name:tag" of the partitioned image *)
  p_original_bytes : int;
  p_slim_bytes : int;
  p_reduction : float;  (** 0.0 – 1.0, same metric as {!Slimmer.report} *)
  p_original_files : int;
  p_slim_files : int;
  p_kept_paths : string list;
}

(* Sidecar suffix appended to a kept path to find its dependency list. *)
let deps_suffix = ".deps"

(* One sidecar line: "kind:path".  A bare path is treated as a lib. *)
let parse_deps text =
  String.split_on_char '\n' text
  |> List.filter_map (fun line ->
         let line = String.trim line in
         if line = "" then None
         else
           match String.index_opt line ':' with
           | Some i ->
               Some
                 ( String.sub line 0 i,
                   String.sub line (i + 1) (String.length line - i - 1) )
           | None -> Some ("lib", line))

let keep_set image =
  let entries = Image.effective_entries image in
  let seen = Hashtbl.create 256 in
  let queue = Queue.create () in
  let enqueue p =
    let p = Pathx.normalize p in
    if not (Hashtbl.mem seen p) then begin
      Hashtbl.replace seen p ();
      Queue.add p queue
    end
  in
  (match image.Image.config.Image.entrypoint with
  | bin :: _ -> enqueue bin
  | [] ->
      (* no root to partition from: keep everything *)
      Hashtbl.iter (fun p _ -> enqueue p) entries);
  while not (Queue.is_empty queue) do
    let p = Queue.pop queue in
    (match Hashtbl.find_opt entries p with
    | Some (Layer.Symlink { target; _ }) ->
        enqueue
          (if Pathx.is_absolute target then target
           else Pathx.concat (Pathx.dirname p) target)
    | _ -> ());
    let sidecar = p ^ deps_suffix in
    match Hashtbl.find_opt entries sidecar with
    | Some (Layer.File { content = Content.Literal text; _ }) ->
        enqueue sidecar;
        List.iter
          (fun (kind, target) ->
            match kind with
            | "data" ->
                (* a directory dependency keeps its whole subtree *)
                Hashtbl.iter
                  (fun path _ ->
                    if path = target || Pathx.is_under ~dir:target path then
                      enqueue path)
                  entries
            | _ -> enqueue target)
          (parse_deps text)
    | _ -> ()
  done;
  Slimmer.closure (Hashtbl.fold (fun p () acc -> p :: acc) seen [])

let slim image =
  let keep = keep_set image in
  let slim_image =
    { (Slimmer.build_slim_image image keep) with Image.name = image.Image.name ^ "-static" }
  in
  let original_bytes = Image.effective_size image in
  let slim_bytes = Image.effective_size slim_image in
  let report =
    {
      p_image = Image.ref_ image;
      p_original_bytes = original_bytes;
      p_slim_bytes = slim_bytes;
      p_reduction =
        (if original_bytes = 0 then 0.0
         else 1.0 -. (float_of_int slim_bytes /. float_of_int original_bytes));
      p_original_files = List.length (Image.effective_paths image);
      p_slim_files = List.length (Image.effective_paths slim_image);
      p_kept_paths = Hashtbl.fold (fun p () acc -> p :: acc) keep [] |> List.sort compare;
    }
  in
  (report, slim_image)
