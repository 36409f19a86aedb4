(* The two file-system workloads: Kernel syscalls on a Bench_env CntrFS
   mount, with the identical sequence replayed on a native twin.

   fs-stream: sequential writes, then two sequential read passes, of four
   ~8 MiB files in 4 KiB and 128 KiB records; the 32 MiB working set is
   twice the 16 MiB page-cache budget.  Byte movement dominates.  The seed
   picks the file names, contents and sizes (within 132 KiB of 8 MiB).

   fs-meta: two client tasks churn small files in their own directory
   trees (mkdir, create, stat, readdir, rename, unlink) beside a shared
   read-only tree; the working set fits in cache.  Lookups dominate. *)

open Repro_util
open Repro_vfs
open Repro_os
open Repro_fuse
open Repro_cntrfs
module BE = Repro_workloads.Bench_env

let kib = 1024
let mib = 1024 * 1024
let ok = Errno.ok_exn

(* --- tracing: the FUSE driver, the CntrFS server and the backing volume,
   each seen through its public interface ------------------------------------ *)

let traced_fsops t ~layer clock (f : Fsops.t) : Fsops.t =
  let w name g = Spans.with_span t ~layer ~name:(layer ^ "." ^ name) clock g in
  {
    f with
    lookup = (fun c i n -> w "lookup" (fun () -> f.lookup c i n));
    forget = (fun i -> w "forget" (fun () -> f.forget i));
    getattr = (fun i -> w "getattr" (fun () -> f.getattr i));
    setattr = (fun c i a -> w "setattr" (fun () -> f.setattr c i a));
    readlink = (fun i -> w "readlink" (fun () -> f.readlink i));
    mknod = (fun c i n ~kind ~mode -> w "mknod" (fun () -> f.mknod c i n ~kind ~mode));
    mkdir = (fun c i n ~mode -> w "mkdir" (fun () -> f.mkdir c i n ~mode));
    unlink = (fun c i n -> w "unlink" (fun () -> f.unlink c i n));
    rmdir = (fun c i n -> w "rmdir" (fun () -> f.rmdir c i n));
    symlink = (fun c i n ~target -> w "symlink" (fun () -> f.symlink c i n ~target));
    rename = (fun c i n j m -> w "rename" (fun () -> f.rename c i n j m));
    link = (fun c ~src ~dir ~name -> w "link" (fun () -> f.link c ~src ~dir ~name));
    open_ = (fun c i fl -> w "open" (fun () -> f.open_ c i fl));
    create = (fun c i n ~mode fl -> w "create" (fun () -> f.create c i n ~mode fl));
    read = (fun h ~off ~len -> w "read" (fun () -> f.read h ~off ~len));
    write = (fun c h ~off d -> w "write" (fun () -> f.write c h ~off d));
    flush = (fun h -> w "flush" (fun () -> f.flush h));
    release = (fun h -> w "release" (fun () -> f.release h));
    fsync = (fun h -> w "fsync" (fun () -> f.fsync h));
    fallocate = (fun h ~off ~len -> w "fallocate" (fun () -> f.fallocate h ~off ~len));
    readdir = (fun c i -> w "readdir" (fun () -> f.readdir c i));
    setxattr = (fun c i n v -> w "setxattr" (fun () -> f.setxattr c i n v));
    getxattr = (fun i n -> w "getxattr" (fun () -> f.getxattr i n));
    listxattr = (fun i -> w "listxattr" (fun () -> f.listxattr i));
    removexattr = (fun c i n -> w "removexattr" (fun () -> f.removexattr c i n));
  }

(* One side of the twin pair.  The CntrFS side sees the backing volume
   through a view stacked on /data and the FUSE driver through a view
   mounted at /cntrt; traced, both views record spans and the server's
   request handler is wrapped too.  Untraced rounds mount the same
   (plain) views, so both kinds of round run the same syscalls and keep
   the same virtual timeline. *)
type side = { env : BE.env; dir : string; clock : Clock.t; tracer : Spans.t option }

let make_side ~backend ~budget_mb ~tracer =
  let env = BE.make_env ~backend ~budget_mb () in
  let k = env.BE.kernel and p = env.BE.proc in
  let clock = k.Kernel.clock in
  match env.BE.session with
  | None -> { env; dir = env.BE.dir; clock; tracer = None }
  | Some session ->
      let view layer fs = match tracer with Some t -> traced_fsops t ~layer clock fs | None -> fs in
      ignore (ok (Kernel.mount_at k p ~fs:(view "vfs" (Nativefs.ops env.BE.data_fs)) "/data"));
      ok (Kernel.mkdir k p "/cntrt" ~mode:0o755);
      ignore (ok (Kernel.mount_at k p ~fs:(view "fuse" (Session.fs session)) "/cntrt"));
      Option.iter
        (fun t ->
          let conn = session.Session.conn in
          let handler = Option.get conn.Conn.handler in
          Conn.set_handler conn (fun ctx req ->
              Spans.with_span t ~layer:"cntrfs" ~name:("cntrfs." ^ Protocol.req_kind req) clock
                (fun () -> handler ctx req)))
        tracer;
      { env; dir = "/cntrt/data/bench"; clock; tracer }

(* One syscall of the timed phase: a sample, and a root span when traced. *)
let sys side s ~id name f =
  Work.op s side.clock (fun () ->
      Spans.wrap side.tracer ~op:id ~layer:"os" ~name:("os." ^ name) side.clock f)

(* Names, kinds and regular-file sizes of the tree under [dir]. *)
let listing side =
  let k = side.env.BE.kernel and p = side.env.BE.proc in
  let rec walk rel acc =
    let path = if rel = "" then side.dir else side.dir ^ "/" ^ rel in
    ok (Kernel.readdir k p path)
    |> List.filter (fun d -> d.Types.d_name <> "." && d.Types.d_name <> "..")
    |> List.fold_left
         (fun acc d ->
           let r = if rel = "" then d.Types.d_name else rel ^ "/" ^ d.Types.d_name in
           let st = ok (Kernel.lstat k p (side.dir ^ "/" ^ r)) in
           match st.Types.st_kind with
           | Types.Dir -> walk r (("d " ^ r) :: acc)
           | kind ->
               Printf.sprintf "%s %s %d" (Types.kind_to_string kind) r st.Types.st_size :: acc)
         acc
  in
  List.sort compare (walk "" [])

(* Set up both sides' worlds, run [body] on the CntrFS side (timed) and,
   when [twin], on the native side; compare the trees. *)
let run_pair ~seed ~twin ~tracer ~budget_mb ~plan ~inputs ~seed_tree ~body =
  let (p, side), setup_ns, _ =
    Work.timed (fun () ->
        let p = plan seed in
        let side = make_side ~backend:(BE.Cntrfs Opts.cntr_default) ~budget_mb ~tracer in
        seed_tree side.env p;
        BE.settle side.env;
        (p, side))
  in
  let s = Measure.samples () in
  let run_side side s =
    Repro_sched.Sched.run side.env.BE.sched (fun () ->
        let v0 = Clock.now_ns side.clock in
        let (), host_ns, alloc = Work.timed (fun () -> body side s p) in
        let virt = Int64.to_int (Int64.sub (Clock.now_ns side.clock) v0) in
        (virt, host_ns, alloc, listing side))
  in
  let virt_ns, timed_ns, alloc_words, tree = run_side side s in
  let twin =
    if not twin then None
    else begin
      let native = make_side ~backend:BE.Native ~budget_mb ~tracer:None in
      seed_tree native.env p;
      BE.settle native.env;
      let ns = Measure.samples () in
      let nvirt, nhost, _, ntree = run_side native ns in
      if ntree <> tree then Work.wrong "CntrFS and native trees differ after the run";
      if ns.Measure.failed > 0 then Work.wrong "%d operations failed on the native twin" ns.failed;
      Some (virt_ns, nvirt, timed_ns, nhost)
    end
  in
  let m = Repro_obs.Obs.metrics side.env.BE.kernel.Kernel.obs in
  (* the fuse+cntrfs stack's share of each clock: (CntrFS - native) / CntrFS *)
  let share cntr native = float_of_int (cntr - native) /. float_of_int (max 1 cntr) in
  {
    Work.setup_ns;
    timed_ns;
    samples = s;
    virt_ns;
    alloc_words;
    inputs = inputs p;
    outputs = Work.digest_strings tree;
    fingerprint =
      Work.digest_strings [ Work.digest_vec s.Measure.virt; Work.registry_digest m ];
    counters =
      Work.stack_counters m
      @ (match twin with
        | Some (v, nv, h, nh) -> [ ("fuse_stack.virt_share", share v nv); ("fuse_stack.host_share", share h nh) ]
        | None -> []);
    overhead = Option.map (fun (v, nv, _, _) -> float_of_int v /. float_of_int (max 1 nv)) twin;
  }

(* --- fs-stream --------------------------------------------------------------- *)

type sfile = { f_name : string; f_size : int; f_shift : int; f_wrec : int }

type splan = {
  files : sfile array;
  passes : (int * int) list list;  (** per read pass: (file, record) in order *)
  pat : string;  (** the seeded pattern, twice over *)
  plen : int;
}

let stream_budget_mb = 16

let stream_plan seed =
  let rng = Rng.create ~seed in
  let plen = mib + 4093 + Rng.int rng 4096 in
  let pat = Bytes.to_string (Rng.bytes rng plen) in
  let files =
    Array.init 4 (fun i ->
        {
          f_name = Printf.sprintf "s%d-%s.dat" i (Rng.ident rng 6);
          f_size = (8 * mib) + (4 * kib * Rng.int rng 33) + Rng.int rng 4096;
          f_shift = Rng.int rng plen;
          f_wrec = (if i mod 2 = 0 then 4 * kib else 128 * kib);
        })
  in
  (* pass p reads the files in write order rotated by p + 1, each with the
     record size it was not written with on pass 0; the order is fixed so
     that the page-cache reuse pattern is the same for every seed *)
  let n = Array.length files in
  let passes =
    List.init 2 (fun pass ->
        List.init n (fun j ->
            let i = (j + pass + 1) mod n in
            (i, if (i + pass) mod 2 = 0 then 128 * kib else 4 * kib)))
  in
  { files; passes; pat = pat ^ pat; plen }

let stream_inputs p =
  Work.digest_strings
    (Digest.to_hex (Digest.string p.pat)
    :: (Array.to_list p.files
       |> List.map (fun f -> Printf.sprintf "%s %d %d %d" f.f_name f.f_size f.f_shift f.f_wrec))
    @ List.map
        (fun pass -> String.concat ";" (List.map (fun (i, r) -> Printf.sprintf "%d/%d" i r) pass))
        p.passes)

(* Does [s] equal the pattern from [pos]? *)
let matches pat pos s =
  let n = String.length s in
  let rec go i = i >= n || (String.unsafe_get s i = String.unsafe_get pat (pos + i) && go (i + 1)) in
  go 0

let stream_body side s p =
  let k = side.env.BE.kernel and proc = side.env.BE.proc in
  let id = ref 0 in
  let sys name f =
    incr id;
    sys side s ~id:!id name f
  in
  let path f = side.dir ^ "/" ^ f.f_name in
  Array.iter
    (fun f ->
      match
        sys "open" (fun () ->
            Kernel.open_ k proc (path f) [ Types.O_CREAT; Types.O_WRONLY; Types.O_TRUNC ] ~mode:0o644)
      with
      | Error _ -> ()
      | Ok fd ->
          let off = ref 0 in
          while !off < f.f_size do
            let len = min f.f_wrec (f.f_size - !off) in
            let data = String.sub p.pat ((f.f_shift + !off) mod p.plen) len in
            (match sys "write" (fun () -> Kernel.write k proc fd data) with
            | Ok n when n <> len -> Measure.fail s
            | _ -> ());
            off := !off + len
          done;
          ignore (sys "fsync" (fun () -> Kernel.fsync k proc fd));
          ignore (sys "close" (fun () -> Kernel.close k proc fd)))
    p.files;
  List.iter
    (List.iter (fun (i, record) ->
         let f = p.files.(i) in
         match sys "open" (fun () -> Kernel.open_ k proc (path f) [ Types.O_RDONLY ] ~mode:0) with
         | Error _ -> ()
         | Ok fd ->
             let off = ref 0 in
             while !off < f.f_size do
               let len = min record (f.f_size - !off) in
               (match sys "read" (fun () -> Kernel.read k proc fd ~len) with
               | Ok data
                 when String.length data = len
                      && matches p.pat ((f.f_shift + !off) mod p.plen) data ->
                   ()
               | Ok _ -> Measure.fail s
               | Error _ -> ());
               off := !off + len
             done;
             ignore (sys "close" (fun () -> Kernel.close k proc fd))))
    p.passes

let stream =
  {
    Work.name = "fs-stream";
    distinct = false;
    round =
      (fun ~seed ~index:_ ~twin ~tracer ->
        run_pair ~seed ~twin ~tracer ~budget_mb:stream_budget_mb ~plan:stream_plan
          ~inputs:stream_inputs
          ~seed_tree:(fun _ _ -> ())
          ~body:stream_body);
  }

(* --- fs-meta ----------------------------------------------------------------- *)

type mop =
  | Mkdir of string
  | Create of string  (** open(O_CREAT|O_EXCL), then close *)
  | Stat of string * Types.kind * int  (** expected kind and (files) size *)
  | Readdir of string * string list  (** expected sorted names *)
  | Rename of string * string
  | Unlink of string

type mplan = { shared : (string * int) list; clients : mop array array }

let meta_budget_mb = 64
let meta_clients = 2
let meta_ops = 5000
let shared_dirs = 8
let shared_files = 12

(* A client's op sequence, generated against a model of its own tree so
   that every operation succeeds and every result is known in advance. *)
let meta_client rng ~shared c =
  let root = Printf.sprintf "c%d" c in
  let dirs = ref [| root |] and parents = ref [| root |] in
  let entries = Hashtbl.create 64 in
  Hashtbl.replace entries root (Hashtbl.create 16);
  (* every name carries a unique number; [files] holds the live files'
     numbers and [names] maps a number to the file's (dir, name) *)
  let files = Measure.vec () and names = Hashtbl.create 256 in
  let next = ref 0 in
  let fresh () =
    incr next;
    Printf.sprintf "%s-%d" (Rng.ident rng 5) !next
  in
  let add_entry dir name = Hashtbl.replace (Hashtbl.find entries dir) name () in
  let del_entry dir name = Hashtbl.remove (Hashtbl.find entries dir) name in
  let pick_file () =
    let i = Rng.int rng files.Measure.n in
    (i, Hashtbl.find names files.Measure.a.(i))
  in
  let drop_file i =
    files.Measure.a.(i) <- files.Measure.a.(files.Measure.n - 1);
    files.Measure.n <- files.Measure.n - 1
  in
  let shared = Array.of_list shared in
  (* the mix is exact in every block of 100 operations; only their order,
     targets and names are random, so every seed does the same amount of
     each kind of work *)
  let block = Array.init 100 Fun.id in
  Array.init meta_ops (fun i ->
      if i mod 100 = 0 then Rng.shuffle rng block;
      let r = block.(i mod 100) in
      let dir = Rng.choose rng !dirs in
      if r < 5 then begin
        (* the tree stays at most three levels deep, so path lengths do
           not drift with the seed *)
        let parent = Rng.choose rng !parents in
        let d = parent ^ "/" ^ fresh () in
        add_entry parent (Filename.basename d);
        Hashtbl.replace entries d (Hashtbl.create 16);
        dirs := Array.append !dirs [| d |];
        if parent = root then parents := Array.append !parents [| d |];
        Mkdir d
      end
      else if r < 27 || files.Measure.n = 0 then begin
        let name = fresh () in
        add_entry dir name;
        Hashtbl.replace names !next (dir, name);
        Measure.push files !next;
        Create (dir ^ "/" ^ name)
      end
      else if r < 50 then
        let _, (d, n) = pick_file () in
        Stat (d ^ "/" ^ n, Types.Reg, 0)
      else if r < 65 then
        let path, size = Rng.choose rng shared in
        Stat (path, Types.Reg, size)
      else if r < 71 then
        let d = Rng.choose rng !dirs in
        Readdir (d, List.sort compare (Hashtbl.fold (fun n () acc -> n :: acc) (Hashtbl.find entries d) []))
      else if r < 77 then
        let d = Printf.sprintf "shared/d%d" (Rng.int rng shared_dirs) in
        Readdir (d, List.init shared_files (fun j -> Printf.sprintf "f%02d" j))
      else if r < 88 then begin
        let i, (d, n) = pick_file () in
        let name = fresh () in
        del_entry d n;
        add_entry dir name;
        Hashtbl.replace names files.Measure.a.(i) (dir, name);
        Rename (d ^ "/" ^ n, dir ^ "/" ^ name)
      end
      else begin
        let i, (d, n) = pick_file () in
        del_entry d n;
        drop_file i;
        Unlink (d ^ "/" ^ n)
      end)

let meta_plan seed =
  let rng = Rng.create ~seed in
  let shared =
    List.concat
      (List.init shared_dirs (fun i ->
           List.init shared_files (fun j ->
               (Printf.sprintf "shared/d%d/f%02d" i j, Rng.int rng 2048))))
  in
  { shared; clients = Array.init meta_clients (fun c -> meta_client rng ~shared c) }

let mop_string = function
  | Mkdir p -> "mkdir " ^ p
  | Create p -> "create " ^ p
  | Stat (p, _, n) -> Printf.sprintf "stat %s %d" p n
  | Readdir (p, l) -> Printf.sprintf "readdir %s %s" p (String.concat "," l)
  | Rename (a, b) -> Printf.sprintf "rename %s %s" a b
  | Unlink p -> "unlink " ^ p

let meta_inputs p =
  Work.digest_strings
    (List.map (fun (n, s) -> Printf.sprintf "%s %d" n s) p.shared
    @ List.concat_map (fun ops -> Array.to_list (Array.map mop_string ops)) (Array.to_list p.clients))

(* The shared tree and the clients' roots, written through the native
   path before the timed phase, as Bench_env's set-up phases are. *)
let meta_seed env p =
  let base = env.BE.backing_dir in
  BE.mkdir env (base ^ "/shared");
  for i = 0 to shared_dirs - 1 do
    BE.mkdir env (Printf.sprintf "%s/shared/d%d" base i)
  done;
  List.iter (fun (path, size) -> BE.write_file env (base ^ "/" ^ path) (String.make size 'm')) p.shared;
  for c = 0 to meta_clients - 1 do
    BE.mkdir env (Printf.sprintf "%s/c%d" base c)
  done

let meta_body side s p =
  let k = side.env.BE.kernel and proc = side.env.BE.proc in
  let id = ref 0 in
  let sys name f =
    incr id;
    sys side s ~id:!id name f
  in
  let abs rel = side.dir ^ "/" ^ rel in
  let client ops () =
    Array.iter
      (function
        | Mkdir d -> ignore (sys "mkdir" (fun () -> Kernel.mkdir k proc (abs d) ~mode:0o755))
        | Create f -> (
            match
              sys "create" (fun () ->
                  Kernel.open_ k proc (abs f) [ Types.O_CREAT; Types.O_EXCL; Types.O_WRONLY ]
                    ~mode:0o644)
            with
            | Ok fd -> ignore (sys "close" (fun () -> Kernel.close k proc fd))
            | Error _ -> ())
        | Stat (f, kind, size) -> (
            match sys "stat" (fun () -> Kernel.stat k proc (abs f)) with
            | Ok st when st.Types.st_kind = kind && st.Types.st_size = size -> ()
            | Ok _ -> Measure.fail s
            | Error _ -> ())
        | Readdir (d, expect) -> (
            match sys "readdir" (fun () -> Kernel.readdir k proc (abs d)) with
            | Ok l ->
                let got =
                  List.filter_map
                    (fun e ->
                      let n = e.Types.d_name in
                      if n = "." || n = ".." then None else Some n)
                    l
                in
                if List.sort compare got <> expect then Measure.fail s
            | Error _ -> ())
        | Rename (a, b) -> ignore (sys "rename" (fun () -> Kernel.rename k proc ~src:(abs a) ~dst:(abs b)))
        | Unlink f -> ignore (sys "unlink" (fun () -> Kernel.unlink k proc (abs f))))
      ops
  in
  BE.concurrently side.env (Array.to_list (Array.map client p.clients))

let meta =
  {
    Work.name = "fs-meta";
    distinct = false;
    round =
      (fun ~seed ~index:_ ~twin ~tracer ->
        run_pair ~seed ~twin ~tracer ~budget_mb:meta_budget_mb ~plan:meta_plan ~inputs:meta_inputs
          ~seed_tree:meta_seed ~body:meta_body);
  }
