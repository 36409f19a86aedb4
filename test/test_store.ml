(* Tests for the content-addressed dedup store: qcheck properties of the
   gear chunker (determinism, concat round-trip, bounded invalidation
   under single-byte edits, the analytic uniform-fill fast path) and unit
   coverage of the refcounted chunk index and its GC. *)

open Repro_store

let check_i = Alcotest.(check int)
let check_b = Alcotest.(check bool)

(* deterministic generator driver: qcheck inside alcotest with a pinned
   random state, so runs are reproducible byte-for-byte *)
let qcheck ?(seed = 0xC41C) test () =
  QCheck.Test.check_exn ~rand:(Random.State.make [| seed |]) test

(* small params so properties exercise many cuts on short strings *)
let small = { Chunker.min_size = 32; mask_bits = 5; max_size = 256 }

let gen_bytes =
  QCheck.Gen.(
    map Bytes.unsafe_to_string (bytes_size ~gen:(map Char.chr (int_range 0 255)) (int_range 0 4096)))

let arb_bytes = QCheck.make ~print:(fun s -> Printf.sprintf "%d bytes" (String.length s)) gen_bytes

(* chunking is a pure function of the bytes *)
let prop_deterministic =
  QCheck.Test.make ~name:"chunker deterministic" ~count:200 arb_bytes (fun s ->
      Chunker.chunks_of_string ~params:small s = Chunker.chunks_of_string ~params:small s
      && Chunker.cut_points ~params:small s = Chunker.cut_points ~params:small s)

(* split obeys the size bounds and concatenates back to the input *)
let prop_split_roundtrip =
  QCheck.Test.make ~name:"split concatenates back to the input" ~count:200 arb_bytes (fun s ->
      let pieces = Chunker.split ~params:small s in
      String.concat "" pieces = s
      && List.for_all (fun p -> String.length p <= small.Chunker.max_size) pieces
      && List.for_all
           (fun p -> String.length p >= 1)
           pieces)

(* chunk descriptors agree with the split pieces *)
let prop_chunks_match_split =
  QCheck.Test.make ~name:"chunk digests match split pieces" ~count:100 arb_bytes (fun s ->
      let pieces = Chunker.split ~params:small s in
      let chunks = Chunker.chunks_of_string ~params:small s in
      List.length pieces = List.length chunks
      && List.for_all2
           (fun p c ->
             c.Chunker.size = String.length p && c.Chunker.digest = Digest.string p)
           pieces chunks
      && Chunker.manifest_bytes chunks = String.length s)

(* a single-byte edit invalidates only a bounded window of chunks: the
   suffixes of the two cut sequences coincide once past the edit by a
   resynchronization window (max_size + the rolling window) *)
let prop_bounded_invalidation =
  QCheck.Test.make ~name:"single-byte edit invalidates bounded chunks" ~count:200
    QCheck.(pair arb_bytes (pair (int_bound 100_000) (int_range 1 255)))
    (fun (s, (pos_seed, delta)) ->
      QCheck.assume (String.length s >= 1024);
      let pos = pos_seed mod String.length s in
      let b = Bytes.of_string s in
      Bytes.set b pos (Char.chr ((Char.code (Bytes.get b pos) + delta) land 0xff));
      let s' = Bytes.to_string b in
      let cuts = Chunker.cut_points ~params:small s in
      let cuts' = Chunker.cut_points ~params:small s' in
      (* prefix stability: cuts strictly before the edited byte are shared *)
      let before = List.filter (fun c -> c <= pos) cuts in
      let before' = List.filter (fun c -> c <= pos) cuts' in
      before = before'
      &&
      (* resynchronization: past the edit by one forced-cut distance plus
         the rolling window, the cut streams coincide again *)
      let horizon = pos + (2 * small.Chunker.max_size) + small.Chunker.mask_bits in
      let after = List.filter (fun c -> c > horizon) cuts in
      let after' = List.filter (fun c -> c > horizon) cuts' in
      after = after')

(* the analytic uniform-fill path equals chunking the rendered string *)
let prop_uniform_fast_path =
  QCheck.Test.make ~name:"analytic uniform chunking = rendered chunking" ~count:60
    QCheck.(pair arb_bytes (pair (int_bound 8192) printable_char))
    (fun (prefix, (extra, fill)) ->
      let total = String.length prefix + extra in
      let rendered =
        prefix ^ String.make (total - String.length prefix) fill
      in
      Chunker.chunks_prefixed_uniform ~params:small ~prefix ~fill ~total ()
      = Chunker.chunks_of_string ~params:small rendered)

(* [chunks_prefixed_uniform] checked against chunking the rendered bytes *)
let check_uniform ?params ~prefix ~fill ~total () =
  let rendered = prefix ^ String.make (total - String.length prefix) fill in
  check_b
    (Printf.sprintf "prefix %d bytes, fill %C, total %d" (String.length prefix) fill total)
    true
    (Chunker.chunks_prefixed_uniform ?params ~prefix ~fill ~total ()
    = Chunker.chunks_of_string ?params rendered)

(* Past the rolling window a uniform fill either qualifies at every
   position (cuts every min_size) or at none (forced cuts every max_size).
   No byte value qualifies under the default params, so the qualifying arm
   is pinned here with [small], with one fill byte of each kind found at
   test time. *)
let test_uniform_both_arms () =
  let period c =
    match Chunker.cut_points ~params:small (String.make (2 * small.Chunker.max_size) c) with
    | first :: _ -> first
    | [] -> assert false
  in
  let bytes = List.init 256 Char.chr in
  let find size = List.find (fun c -> period c = size) bytes in
  let qualifying = find small.Chunker.min_size in
  let forced = find small.Chunker.max_size in
  let prefix = Bytes.to_string (Repro_util.Rng.bytes (Repro_util.Rng.create ~seed:3) 100) in
  List.iter
    (fun (fill, step) ->
      List.iter
        (fun prefix ->
          let plen = String.length prefix in
          List.iter
            (fun extra -> check_uniform ~params:small ~prefix ~fill ~total:(plen + extra) ())
            [ 0; 1; 4; 5; 6; 31; 32; 33; 255; 256; 257; 1000; 5000 ];
          (* deep in the tail every chunk is one period long *)
          let sizes =
            List.map
              (fun c -> c.Chunker.size)
              (Chunker.chunks_prefixed_uniform ~params:small ~prefix ~fill ~total:(plen + 5000) ())
          in
          let tail = List.filteri (fun i _ -> i >= 3 && i < List.length sizes - 1) sizes in
          check_b "steady period" true (tail <> [] && List.for_all (( = ) step) tail))
        [ ""; prefix ])
    [ (qualifying, small.Chunker.min_size); (forced, small.Chunker.max_size) ]

(* The two shapes [Blobs] chunks ([Filler]: no prefix, 'D'; [Binary]: a
   "#!BIN" header, 'x') under the default params (4 KiB / 13 bits /
   64 KiB), at every cut-over size of the forced-cut arm and at the edge
   where an earlier version switched from rendering the whole blob to
   extrapolating a settled sample. *)
let test_uniform_blob_shapes () =
  let max_size = 65536 in
  let settle_edge = (4 * max_size) + 13 + max_size in
  List.iter
    (fun (prefix, fill) ->
      let plen = String.length prefix in
      List.iter
        (fun extra -> check_uniform ~prefix ~fill ~total:(plen + extra) ())
        [ 0; 1; 12; 13; 14; 4095; 65535; 65536; 65537; settle_edge - 1; settle_edge;
          settle_edge + 1; (3 * 1024 * 1024) + 7 ])
    [ ("", 'D'); ("#!BIN appmain\n", 'x') ]

(* a prefix longer than max_size (64 KiB by default, 256 for [small]):
   every chunk touching it is rendered, the fill after it extrapolated *)
let test_uniform_long_prefix () =
  let prefix = Bytes.to_string (Repro_util.Rng.bytes (Repro_util.Rng.create ~seed:5) 150_000) in
  let plen = String.length prefix in
  List.iter
    (fun extra -> check_uniform ~prefix ~fill:'x' ~total:(plen + extra) ())
    [ 0; 1; 13; 14; 70_000; 300_001 ];
  let prefix = String.sub prefix 0 1000 in
  List.iter
    (fun extra -> check_uniform ~params:small ~prefix ~fill:'x' ~total:(1000 + extra) ())
    [ 0; 1; 5; 6; 300; 2000 ]

(* Cuts landing just before, at and just after the end of the prefix: the
   chunk holding the last prefix byte must be rendered, the chunk starting
   at the prefix end may come from the fill memo.  Each prefix is cut from
   a random string at one of its own cuts (cuts are prefix-stable), and the
   fill differs from the prefix's last byte. *)
let test_uniform_cut_at_prefix_edge () =
  let s = Bytes.to_string (Repro_util.Rng.bytes (Repro_util.Rng.create ~seed:9) 3000) in
  List.iter
    (fun cut ->
      List.iter
        (fun plen ->
          if plen >= 1 && plen <= String.length s then begin
            let prefix = String.sub s 0 plen in
            let fill = Char.chr ((Char.code prefix.[plen - 1] + 1) land 0xff) in
            List.iter
              (fun extra -> check_uniform ~params:small ~prefix ~fill ~total:(plen + extra) ())
              [ 0; 1; 700 ]
          end)
        [ cut - 1; cut; cut + 1 ])
    (Chunker.cut_points ~params:small s)

(* Allocation guard: a multi-megabyte fill costs list cells, not bytes.
   Once the 64 KiB period chunk is memoized, chunking 3 MiB + 37 of 'D'
   measured a [Gc.allocated_bytes] delta of about 835 KiB when each call
   rendered, substring-ed and digested a 256 KiB settling sample, and
   under 1 KiB (about 580 minor words) now that nothing longer than one
   chunk is rendered and wholly-fill chunks come from a memo. *)
let test_uniform_allocation () =
  let call total = Chunker.chunks_prefixed_uniform ~prefix:"" ~fill:'D' ~total () in
  ignore (call 3_145_728);
  let before = Gc.allocated_bytes () in
  let chunks = call (3_145_728 + 37) in
  let allocated = Gc.allocated_bytes () -. before in
  check_i "manifest covers the blob" (3_145_728 + 37) (Chunker.manifest_bytes chunks);
  check_b (Printf.sprintf "allocated %.0f bytes <= 64 KiB" allocated) true (allocated <= 65536.)

(* concatenation property the registry relies on: chunks of a shared
   prefix survive as a prefix of the chunk list of any extension *)
let prop_prefix_stable =
  QCheck.Test.make ~name:"cut points are prefix-stable" ~count:100
    QCheck.(pair arb_bytes arb_bytes)
    (fun (a, b) ->
      let cuts_a = Chunker.cut_points ~params:small a in
      let cuts_ab = Chunker.cut_points ~params:small (a ^ b) in
      let len_a = String.length a in
      let full_a = List.filter (fun c -> c < len_a) cuts_a in
      let full_ab = List.filter (fun c -> c < len_a) cuts_ab in
      full_a = full_ab)

(* --- store unit tests -------------------------------------------------------- *)

let chunks s = Chunker.chunks_of_string ~params:small s

let test_store_refcount_and_dedup () =
  let metrics = Repro_obs.Metrics.create () in
  let store = Store.create ~metrics () in
  let payload =
    Bytes.to_string (Repro_util.Rng.bytes (Repro_util.Rng.create ~seed:7) 2048)
  in
  let m = chunks payload in
  Store.add store ~key:"layer-a" m;
  Store.add store ~key:"layer-b" m;
  (* same bytes under two keys: logical doubles, physical does not *)
  check_i "logical counts both" (2 * String.length payload) (Store.logical_bytes store);
  check_i "physical counts once" (String.length payload) (Store.physical_bytes store);
  check_b "dedup ratio 2x" true (abs_float (Store.dedup_ratio store -. 2.0) < 1e-9);
  check_i "metrics logical" (2 * String.length payload)
    (Repro_obs.Metrics.counter_value metrics "store.bytes.logical");
  check_b "metrics gauge" true
    (abs_float (Repro_obs.Metrics.gauge_value metrics "store.dedup_ratio" -. 2.0) < 1e-9);
  (* missing: everything present already *)
  check_i "nothing missing" 0 (List.length (Store.missing store m))

let test_store_gc_collects_dead_chunks () =
  let store = Store.create () in
  let a = chunks (String.make 1500 'a') in
  let b = chunks (String.make 1500 'b') in
  Store.add store ~key:"a" a;
  Store.add store ~key:"b" b;
  let physical_before = Store.physical_bytes store in
  Store.release store "a";
  (* dead chunks no longer resolve, but their bytes linger until the sweep *)
  check_b "released chunk dead" false (Store.chunk_present store (List.hd a).Chunker.digest);
  check_i "physical unchanged pre-gc" physical_before (Store.physical_bytes store);
  let collected = Store.gc store in
  check_b "physical dropped post-gc" true (Store.physical_bytes store < physical_before);
  check_b "collected some" true (collected > 0);
  check_b "a's chunks gone" false (Store.chunk_present store (List.hd a).Chunker.digest);
  check_b "b's chunks survive" true (Store.chunk_present store (List.hd b).Chunker.digest);
  check_i "gc counter" collected (Store.gc_collected store)

let test_store_reset_is_not_gc () =
  let store = Store.create () in
  Store.add store ~key:"a" (chunks (String.make 600 'z'));
  Store.reset store;
  check_i "no blobs" 0 (Store.blobs store);
  check_i "no physical bytes" 0 (Store.physical_bytes store);
  check_i "reset does not count as gc" 0 (Store.gc_collected store)

let () =
  Alcotest.run "store"
    [
      ( "chunker",
        [
          Alcotest.test_case "deterministic" `Quick (qcheck prop_deterministic);
          Alcotest.test_case "split round-trip" `Quick (qcheck prop_split_roundtrip);
          Alcotest.test_case "chunks match split" `Quick (qcheck prop_chunks_match_split);
          Alcotest.test_case "bounded invalidation" `Quick (qcheck prop_bounded_invalidation);
          Alcotest.test_case "analytic uniform path" `Quick (qcheck prop_uniform_fast_path);
          Alcotest.test_case "prefix stable" `Quick (qcheck prop_prefix_stable);
          Alcotest.test_case "uniform fill both cut arms" `Quick test_uniform_both_arms;
          Alcotest.test_case "uniform fill blob shapes" `Quick test_uniform_blob_shapes;
          Alcotest.test_case "uniform fill long prefix" `Quick test_uniform_long_prefix;
          Alcotest.test_case "uniform fill cut at prefix edge" `Quick test_uniform_cut_at_prefix_edge;
          Alcotest.test_case "uniform fill allocation" `Quick test_uniform_allocation;
        ] );
      ( "store",
        [
          Alcotest.test_case "refcount and dedup" `Quick test_store_refcount_and_dedup;
          Alcotest.test_case "gc collects dead chunks" `Quick test_store_gc_collects_dead_chunks;
          Alcotest.test_case "reset is not gc" `Quick test_store_reset_is_not_gc;
        ] );
    ]
