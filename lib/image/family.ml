(* Program-family synthesis: the registry-scale image population behind
   E5R.  Where {!Catalog} mirrors the Top-50's *individual* structure,
   families mirror a production registry's *sharing* structure: thousands
   of images clustered into program families, each family sharing a distro
   base (the same layer objects as the Top-50) and a family runtime layer,
   with only a thin per-member layer of unique bytes (config, manifest, a
   seeded data blob).  That sharing is what the content-addressed store
   dedups, and what makes pulls cheap at scale.

   Every member also carries static dependency sidecars (`<bin>.deps`)
   naming its linked libraries, config files and data directory — the
   metadata a Cimplifier-style static partitioner walks instead of running
   the container (see {!Repro_slim.Partition}).  The dynamic working set
   (what appmain touches) is a strict subset of the static closure, so
   both strategies produce functional slim images while landing different
   reductions. *)

open Repro_util

let kib = Size.kib

type spec = {
  f_name : string;
  f_base : [ `Alpine | `Debian | `Scratch ];
  f_runtime_kib : int; (* shared family runtime library; 0 = none (static binaries) *)
  f_bin_kib : int; (* member binary (same descriptor family-wide) *)
  f_hot_kib : int; (* minimum hot data asset; grows to hit the band *)
  f_cold_kib : int; (* data shipped next to the hot asset, never read *)
  f_reduction_lo : float; (* dynamic-reduction band across the family *)
  f_reduction_hi : float;
}

let fam name base runtime bin hot cold lo hi =
  {
    f_name = name;
    f_base = base;
    f_runtime_kib = runtime;
    f_bin_kib = bin;
    f_hot_kib = hot;
    f_cold_kib = cold;
    f_reduction_lo = lo;
    f_reduction_hi = hi;
  }

(* Twenty families: eighteen dynamic-language/daemon shapes over distro
   bases plus two static-binary families (the Top-50's Go pattern). *)
let specs =
  [
    fam "webd" `Debian 192 48 32 64 0.82 0.95;
    fam "apid" `Debian 256 64 32 96 0.75 0.92;
    fam "kvstore" `Alpine 96 32 16 48 0.70 0.90;
    fam "queued" `Alpine 128 48 24 64 0.65 0.88;
    fam "sqldb" `Debian 384 96 64 128 0.55 0.80;
    fam "docstore" `Debian 320 96 48 96 0.55 0.78;
    fam "tsdb" `Alpine 256 64 48 96 0.60 0.85;
    fam "searchd" `Debian 448 128 64 128 0.50 0.75;
    fam "cms" `Debian 256 64 48 96 0.70 0.90;
    fam "wiki" `Debian 224 64 32 64 0.72 0.90;
    fam "mailer" `Debian 160 48 24 64 0.68 0.88;
    fam "proxyd" `Debian 96 32 16 32 0.85 0.96;
    fam "lb" `Alpine 80 32 16 32 0.85 0.95;
    fam "metricsd" `Alpine 192 64 32 64 0.65 0.85;
    fam "logship" `Alpine 224 64 32 96 0.60 0.82;
    fam "cached" `Alpine 64 24 16 32 0.80 0.94;
    fam "authd" `Debian 128 48 24 48 0.70 0.88;
    fam "schedlr" `Debian 160 48 32 64 0.66 0.86;
    fam "gobin" `Scratch 0 256 32 16 0.02 0.10;
    fam "edgegw" `Scratch 0 192 24 16 0.03 0.12;
  ]

(* Path of the family's shared runtime library. *)
let runtime_lib spec = Printf.sprintf "/usr/lib/fam-%s.so" spec.f_name

(* Byte size of the base-layer paths the application touches at runtime. *)
let base_used_bytes base =
  let layer = Catalog.base_layer base in
  let used = Catalog.base_paths_used base in
  List.fold_left
    (fun acc entry ->
      match entry with
      | Layer.File { path; _ } | Layer.Symlink { path; _ } when List.mem path used ->
          acc + Layer.entry_size entry
      | _ -> acc)
    0 layer.Layer.entries

(* The family runtime layer, shared by every member (one layer id). *)
let runtime_layer spec =
  if spec.f_runtime_kib = 0 then None
  else
    let lib = runtime_lib spec in
    let deps =
      String.concat "" (List.map (fun p -> "lib:" ^ p ^ "\n") (Catalog.base_paths_used spec.f_base))
    in
    Some
      (Layer.v
         ~id:("fam:" ^ spec.f_name)
         [
           Layer.Dir { path = "/usr/lib"; mode = 0o755 };
           Layer.File { path = lib; mode = 0o755; content = Content.Filler (kib spec.f_runtime_kib) };
           Layer.File { path = lib ^ ".deps"; mode = 0o644; content = Content.Literal deps };
         ])

(* Member [i]'s target dynamic reduction: a deterministic spread across the
   family's band (stride 7 walks the band out of member order, so
   neighbouring members land in different histogram buckets). *)
let member_reduction spec ~members i =
  let members = max members 1 in
  let frac = float_of_int (i * 7 mod members) /. float_of_int members in
  spec.f_reduction_lo +. ((spec.f_reduction_hi -. spec.f_reduction_lo) *. frac)

let member spec ~members i =
  let name = Printf.sprintf "%s-%04d" spec.f_name i in
  let base = Catalog.base_layer spec.f_base in
  let bin_path = "/usr/sbin/" ^ name in
  let conf_path = "/etc/" ^ name ^ ".conf" in
  let data_dir = "/usr/share/" ^ name in
  let hot_path = data_dir ^ "/hot.dat" in
  let seed_path = data_dir ^ "/seed.bin" in
  let cold_path = data_dir ^ "/cold.dat" in
  let seed_bytes =
    let rng = Rng.create ~seed:(Hashtbl.hash name) in
    Bytes.to_string (Rng.bytes rng (kib (1 + (i mod 4))))
  in
  let conf = Printf.sprintf "# %s\nfamily=%s\nlisten=0.0.0.0\nmember=%d\n" name spec.f_name i in
  let runtime_paths = if spec.f_runtime_kib = 0 then [] else [ runtime_lib spec ] in
  (* the dynamic working set: what appmain actually touches *)
  let manifest_paths =
    [ bin_path; conf_path; hot_path; seed_path ]
    @ runtime_paths
    @ Catalog.base_paths_used spec.f_base
  in
  let manifest = String.concat "\n" manifest_paths ^ "\n" in
  (* the static dependency sidecar: libraries, config, the data directory *)
  let deps =
    String.concat ""
      (List.map (fun p -> "lib:" ^ p ^ "\n") (runtime_paths @ Catalog.base_paths_used spec.f_base)
      @ [ "conf:" ^ conf_path ^ "\n"; "conf:" ^ Programs.manifest_path ^ "\n"; "data:" ^ data_dir ^ "\n" ])
  in
  (* Size the image so the member's dynamic reduction lands on its band
     target r.  Reduction = unused/total; the base's unused tooling bytes
     are fixed, so for low-r members the hot asset grows (a real database
     ships real data) and for high-r members ballast pads the unused
     side. *)
  let r = member_reduction spec ~members i in
  let base_used = base_used_bytes spec.f_base in
  let base_unused = max 0 (Layer.size base - base_used) in
  let runtime_deps_len =
    if spec.f_runtime_kib = 0 then 0
    else
      String.length
        (String.concat ""
           (List.map (fun p -> "lib:" ^ p ^ "\n") (Catalog.base_paths_used spec.f_base)))
  in
  let accessed0 =
    kib spec.f_bin_kib + String.length conf + String.length manifest
    + String.length seed_bytes + kib spec.f_runtime_kib + base_used
  in
  let unused0 = base_unused + kib spec.f_cold_kib + String.length deps + runtime_deps_len in
  let accessed_needed = int_of_float (float_of_int unused0 *. (1. -. r) /. r) in
  let hot_bytes = max (kib spec.f_hot_kib) (accessed_needed - accessed0) in
  let accessed = accessed0 + hot_bytes in
  let ballast =
    max 0 (int_of_float (float_of_int accessed *. r /. (1. -. r)) - unused0)
  in
  let app_entries =
    [
      Layer.Dir { path = data_dir; mode = 0o755 };
      Layer.File { path = bin_path; mode = 0o755; content = Content.Binary { prog = "appmain"; size = kib spec.f_bin_kib } };
      Layer.File { path = bin_path ^ ".deps"; mode = 0o644; content = Content.Literal deps };
      Layer.File { path = conf_path; mode = 0o644; content = Content.Literal conf };
      Layer.File { path = Programs.manifest_path; mode = 0o644; content = Content.Literal manifest };
      Layer.File { path = hot_path; mode = 0o644; content = Content.Filler hot_bytes };
      Layer.File { path = seed_path; mode = 0o644; content = Content.Literal seed_bytes };
      Layer.File { path = cold_path; mode = 0o644; content = Content.Filler (kib spec.f_cold_kib) };
    ]
  in
  let aux_entries =
    if ballast = 0 then []
    else
      let pieces = 2 + (i mod 3) in
      let piece = ballast / pieces in
      Layer.Dir { path = "/opt"; mode = 0o755 }
      :: Layer.Dir { path = "/opt/" ^ name ^ "-extras"; mode = 0o755 }
      :: List.init pieces (fun j ->
             let size = if j = pieces - 1 then ballast - (piece * (pieces - 1)) else piece in
             Layer.File
               {
                 path = Printf.sprintf "/opt/%s-extras/tool-%d" name j;
                 mode = 0o644;
                 content = Content.Filler size;
               })
  in
  let layers =
    [ base ]
    @ Option.to_list (runtime_layer spec)
    @ [ Layer.v ~id:("app:" ^ name) app_entries ]
    @ (if aux_entries = [] then [] else [ Layer.v ~id:("aux:" ^ name) aux_entries ])
  in
  let config =
    {
      Image.env = [ ("PATH", "/usr/local/bin:/usr/bin:/bin:/usr/sbin:/sbin") ];
      entrypoint = [ bin_path ];
      workdir = "/";
      user = 0;
    }
  in
  Image.v ~name ~config layers

(* Exactly [n] images, families in [specs] order, members round-sized so
   every family is populated whenever [n >= length specs]. *)
let synthesize ~n =
  let nfam = List.length specs in
  let counts =
    List.mapi (fun idx _ -> (n / nfam) + (if idx < n mod nfam then 1 else 0)) specs
  in
  List.concat
    (List.map2 (fun spec count -> List.init count (fun i -> member spec ~members:count i)) specs counts)

(* One representative per family (member 0 with the member count it would
   have in [synthesize ~n]), for materialize-and-run comparisons. *)
let representatives ~n =
  let nfam = List.length specs in
  List.mapi
    (fun idx spec ->
      let count = max 1 ((n / nfam) + if idx < n mod nfam then 1 else 0) in
      (spec, member spec ~members:count 0))
    specs
