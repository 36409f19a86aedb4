(* The Phoronix disk-suite workloads (§5.2, Figure 2): 13 generators, 20
   benchmark configurations.  Sizes are scaled (documented per workload);
   each [w_paper] is the overhead the paper reports, for side-by-side
   output in EXPERIMENTS.md. *)

open Repro_util
open Repro_vfs
open Bench_env

let kib = Size.kib
let mib = Size.mib

let w name ~paper ?(concurrency = 1) ?(budget_mb = 64) ~setup ~run () =
  { w_name = name; w_paper = paper; w_concurrency = concurrency; w_budget_mb = budget_mb; w_setup = setup; w_run = run }

let p env rel = env.dir ^ "/" ^ rel
let pb env rel = env.backing_dir ^ "/" ^ rel

(* --- AIO-Stress: 2 GB of async writes (scaled to 2 MiB) -------------------- *)
(* Native runs O_DIRECT + full queue depth; CntrFS cannot do direct I/O, so
   every request is processed synchronously (paper: 2.6x). *)

let aio_stress =
  w "AIO-Stress" ~paper:2.6
    ~setup:(fun _ -> ())
    ~run:(fun env ->
      let total = mib 2 and record = kib 4 in
      let fd =
        match
          Repro_os.Kernel.open_ env.kernel env.proc (p env "aiofile")
            [ Types.O_CREAT; Types.O_WRONLY; Types.O_DIRECT; Types.O_NONBLOCK ]
            ~mode:0o644
        with
        | Ok fd -> fd
        | Error Errno.EINVAL ->
            (* FUSE: no direct I/O — fall back to synchronous writes *)
            openf env (p env "aiofile") [ Types.O_CREAT; Types.O_WRONLY; Types.O_SYNC ] 0o644
        | Error e -> raise (Errno.Error e)
      in
      seq_write env fd ~total ~record;
      closef env fd)
    ()

(* --- Apache benchmark: 100K requests for ~3 KB files (scaled to 3000) ------ *)
(* Serving is cache-warm; the bottleneck is the <100-byte access-log append
   per request, which costs an uncached security.capability getxattr
   through FUSE (paper: 1.5x). *)

let apachebench =
  w "Apachebench" ~paper:1.5
    ~setup:(fun env ->
      mkdir env (pb env "docroot");
      for i = 0 to 49 do
        write_file env (pb env (Printf.sprintf "docroot/page%d.html" i)) (String.make (kib 3) 'p')
      done)
    ~run:(fun env ->
      let log = openf env (p env "access.log") [ Types.O_CREAT; Types.O_WRONLY; Types.O_APPEND ] 0o644 in
      (* the server keeps an fd cache for hot content, like Apache *)
      let fds =
        Array.init 50 (fun i ->
            openf env (p env (Printf.sprintf "docroot/page%d.html" i)) [ Types.O_RDONLY ] 0)
      in
      for i = 0 to 2999 do
        ignore (pread env fds.(i mod 50) ~off:0 ~len:(kib 3));
        (* request handling CPU (parse, headers, socket work) *)
        cpu env 10_000;
        write_all env log "10.0.0.1 - GET /page HTTP/1.1 200 3072\n"
      done;
      Array.iter (closef env) fds;
      closef env log)
    ()

(* --- Compilebench (three stages) -------------------------------------------- *)
(* A kernel-ish source tree: many small files in nested dirs.  The read
   stage walks a *fresh* tree, so every file costs a cold FUSE lookup with
   the server-side open()+stat() — the suite's worst case (paper: 13.3x).
   The create stage copies a tree (7.3x); the compile stage writes .o files
   next to sources (2.3x). *)

let tree_dirs = 12
let tree_files_per_dir = 18
let tree_file_bytes = kib 4

let make_tree env ~via base =
  let path rel = match via with `Backing -> pb env rel | `Measured -> p env rel in
  mkdir env (path base);
  for d = 0 to tree_dirs - 1 do
    let dir = Printf.sprintf "%s/dir%02d" base d in
    mkdir env (path dir);
    for f = 0 to tree_files_per_dir - 1 do
      write_file env (path (Printf.sprintf "%s/src%02d.c" dir f)) (String.make tree_file_bytes 'c')
    done
  done

(* Recursive readdir + read of every file under a directory (the
   compilebench read stage). *)
let walk_tree env base =
  let rec go dir =
    let entries = Errno.ok_exn (Repro_os.Kernel.readdir env.kernel env.proc dir) in
    List.iter
      (fun e ->
        let n = e.Types.d_name in
        if n <> "." && n <> ".." then
          match e.Types.d_kind with
          | Types.Dir -> go (dir ^ "/" ^ n)
          | _ -> ignore (read_file env (dir ^ "/" ^ n)))
      entries
  in
  go base

let compilebench_read =
  w "Compileb.: Read" ~paper:13.3 ~concurrency:4
    ~setup:(fun env -> make_tree env ~via:`Backing "tree")
    ~run:(fun env -> walk_tree env (p env "tree"))
    ()

let compilebench_create =
  w "Compileb.: Create" ~paper:7.3 ~concurrency:4
    ~setup:(fun _ -> ())
    ~run:(fun env ->
      (* the initial-creation stage: unpack a fresh source tree (the data
         comes out of the tar stream in memory; every file costs namespace
         operations) *)
      mkdir env (p env "newtree");
      let data = String.make tree_file_bytes 'c' in
      for d = 0 to tree_dirs - 1 do
        let ddir = p env (Printf.sprintf "newtree/dir%02d" d) in
        mkdir env ddir;
        for f = 0 to tree_files_per_dir - 1 do
          write_file env (Printf.sprintf "%s/src%02d.c" ddir f) data
        done
      done)
    ()

let compilebench_compile =
  w "Compileb.: Comp." ~paper:2.3 ~concurrency:4 ~budget_mb:8
    ~setup:(fun env ->
      (* compilebench runs its stages back to back through the same mount:
         by compile time the tree was created through it, so caches are
         warm — build the tree through the *measured* path *)
      make_tree env ~via:`Measured "ctree")
    ~run:(fun env ->
      (* compile one "module": read sources, emit objects (4x the size) *)
      for d = 0 to tree_dirs - 1 do
        let dir = p env (Printf.sprintf "ctree/dir%02d" d) in
        for f = 0 to tree_files_per_dir - 1 do
          let src = read_file env (Printf.sprintf "%s/src%02d.c" dir f) in
          cpu env (String.length src * 5); (* cc time *)
          write_file env (Printf.sprintf "%s/src%02d.o" dir f)
            (String.make (String.length src * 4) 'o')
        done
      done)
    ()

(* --- Dbench: file-server mix at 1/12/48/128 clients -------------------------- *)
(* Clients re-read a warm working set; the driver's caches absorb nearly
   everything after the first round (paper: 0.9x - 1.0x). *)

let dbench clients paper =
  w (Printf.sprintf "Dbench: %d Clients" clients) ~paper ~concurrency:(min clients 8)
    ~setup:(fun env ->
      for c = 0 to min clients 8 - 1 do
        let dir = Printf.sprintf "client%d" c in
        mkdir env (pb env dir);
        for f = 0 to 3 do
          write_file env (pb env (Printf.sprintf "%s/f%d" dir f)) (String.make (kib 256) 'd')
        done
      done)
    ~run:(fun env ->
      (* each client opens its working set once and re-reads it — the
         dbench NBENCH loop is dominated by data transfer, not opens.
         Clients are concurrent tasks: their cold-round FUSE round trips
         genuinely overlap on the server's worker pool. *)
      let dirs = min clients 8 in
      let fds =
        Array.init dirs (fun c ->
            Array.init 4 (fun f ->
                openf env (p env (Printf.sprintf "client%d/f%d" c f)) [ Types.O_RDONLY ] 0))
      in
      let rounds = 16 + (4 * clients) in
      let client c () =
        for r = 0 to rounds - 1 do
          let fd = fds.(c).(r mod 4) in
          seq_read env fd ~total:(kib 256) ~record:(kib 64);
          if r mod 8 = 0 then
            ignore
              (Errno.ok_exn
                 (Repro_os.Kernel.stat env.kernel env.proc
                    (p env (Printf.sprintf "client%d/f%d" c (r mod 4)))))
        done
      in
      concurrently env (List.init dirs client);
      Array.iter (Array.iter (closef env)) fds)
    ()

(* --- FS-Mark: 1000 x 1 MB sequential creates (scaled to 24 x 256 KiB) ------- *)
(* 16 KiB writes, disk-bound: the streaming cost dominates both sides
   (paper: 1.0x). *)

let fs_mark =
  w "FS-Mark" ~paper:1.0
    ~setup:(fun _ -> ())
    ~run:(fun env ->
      for i = 0 to 23 do
        let fd = openf env (p env (Printf.sprintf "mark%03d" i)) [ Types.O_CREAT; Types.O_WRONLY ] 0o644 in
        seq_write env fd ~total:(kib 256) ~record:(kib 16);
        fsync env fd;
        closef env fd
      done)
    ()

(* --- FIO fileserver profile: 80% random reads / 20% random writes ----------- *)
(* 4 GB scaled to 4 MiB, ~128 KiB blocks, hot working set.  CntrFS's
   writeback cache holds dirty pages much longer than the native dirty
   threshold, absorbing rewrites: fewer, larger disk writes — faster than
   native (paper: 0.2x). *)

let fio =
  w "FIO" ~paper:0.2
    ~setup:(fun env -> write_file env (pb env "fio.dat") (String.make (mib 4) 'f'))
    ~run:(fun env ->
      let fd = openf env (p env "fio.dat") [ Types.O_RDWR ] 0o644 in
      let block = kib 128 in
      let hot_blocks = 4 in (* hot region: 512 KiB *)
      let blocks = mib 4 / block in
      let buf = String.make block 'F' in
      for i = 0 to 399 do
        let hot = Rng.int env.rng 10 < 8 in
        let blk = if hot then Rng.int env.rng hot_blocks else Rng.int env.rng blocks in
        let off = blk * block in
        if Rng.int env.rng 10 < 8 then ignore (pread env fd ~off ~len:block)
        else begin
          ignore i;
          pwrite env fd ~off buf
        end
      done;
      closef env fd)
    ()

(* --- Gzip: compress a 2 GB zero file (scaled to 2 MiB) ---------------------- *)
(* Compute-bound: gzip is slower than either filesystem (paper: 1.0x). *)

let gzip =
  w "Gzip" ~paper:1.0
    ~setup:(fun env -> write_file env (pb env "zeros") (String.make (mib 2) '\000'))
    ~run:(fun env ->
      let fd = openf env (p env "zeros") [ Types.O_RDONLY ] 0 in
      let out = openf env (p env "zeros.gz") [ Types.O_CREAT; Types.O_WRONLY ] 0o644 in
      let record = kib 64 in
      let rec go off =
        if off < mib 2 then begin
          let chunk = pread env fd ~off ~len:record in
          (* gzip: ~25 us per 4 KiB of input *)
          cpu env (String.length chunk / 4096 * 25_000);
          write_all env out (String.make (record / 50) 'z');
          go (off + record)
        end
      in
      go 0;
      closef env fd;
      closef env out)
    ()

(* --- IOzone: sequential write then sequential read, 4 KiB records ----------- *)
(* Write: the per-write getxattr tax (paper: 1.2x).  Read: the working set
   fits the page cache natively but not when CntrFS double-buffers it
   (paper: 2.1x). *)

let iozone_write =
  w "IOzone: Write" ~paper:1.2
    ~setup:(fun _ -> ())
    ~run:(fun env ->
      let fd = openf env (p env "ioz") [ Types.O_CREAT; Types.O_WRONLY ] 0o644 in
      seq_write env fd ~total:(mib 2) ~record:(kib 4);
      fsync env fd;
      closef env fd)
    ()

let iozone_read =
  w "IOzone: Read" ~paper:2.1 ~budget_mb:6
    ~setup:(fun env -> write_file env (pb env "ioz") (String.make (mib 4) 'r'))
    ~run:(fun env ->
      let fd = openf env (p env "ioz") [ Types.O_RDONLY ] 0 in
      (* two sequential passes, as iozone re-reads *)
      seq_read env fd ~total:(mib 4) ~record:(kib 4);
      seq_read env fd ~total:(mib 4) ~record:(kib 4);
      closef env fd)
    ()

(* --- Postmark: mail-server churn --------------------------------------------- *)
(* Small files created, appended, read and deleted before they are ever
   synced: native pays almost no disk I/O, CntrFS pays lookups and round
   trips for everything (paper: 7.1x). *)

let postmark =
  w "PostMark" ~paper:7.1
    ~setup:(fun env -> mkdir env (pb env "mail"))
    ~run:(fun env ->
      let pool = Array.make 40 None in
      for i = 0 to 399 do
        let slot = Rng.int env.rng 40 in
        let name = p env (Printf.sprintf "mail/msg%d" slot) in
        match pool.(slot) with
        | None ->
            let size = 512 + Rng.int env.rng (kib 7) in
            write_file env name (String.make size 'm');
            pool.(slot) <- Some size
        | Some _ when Rng.int env.rng 4 = 0 ->
            unlink env name;
            pool.(slot) <- None
        | Some size when Rng.int env.rng 2 = 0 ->
            let fd = openf env name [ Types.O_WRONLY; Types.O_APPEND ] 0 in
            write_all env fd (String.make 256 'a');
            closef env fd;
            pool.(slot) <- Some (size + 256);
            ignore i
        | Some _ -> ignore (read_file env name)
      done)
    ()

(* --- PGBench: OLTP reads/writes + WAL ---------------------------------------- *)
(* Hot-page rewrites sit in the writeback cache instead of hitting the
   device at every native dirty-threshold flush (paper: 0.4x). *)

let pgbench =
  w "Pgbench" ~paper:0.4
    ~setup:(fun env ->
      write_file env (pb env "table.dat") (String.make (mib 2) 't');
      write_file env (pb env "wal") "")
    ~run:(fun env ->
      let table = openf env (p env "table.dat") [ Types.O_RDWR ] 0 in
      let wal = openf env (p env "wal") [ Types.O_WRONLY; Types.O_APPEND ] 0 in
      let page = kib 8 in
      let hot_pages = 64 in (* 512 KiB hot b-tree region *)
      for tx = 0 to 1199 do
        (* read two pages (mostly hot), update one hot page, append WAL *)
        let rd () =
          let pg =
            if Rng.int env.rng 10 < 9 then Rng.int env.rng hot_pages
            else Rng.int env.rng (mib 2 / page)
          in
          ignore (pread env table ~off:(pg * page) ~len:page)
        in
        rd ();
        rd ();
        let hot = Rng.int env.rng hot_pages * page in
        pwrite env table ~off:hot (String.make page 'u');
        write_all env wal (String.make 120 'w');
        cpu env 3_000;
        (* group commit every 100 transactions *)
        if tx mod 100 = 99 then fsync env wal
      done;
      closef env table;
      closef env wal)
    ()

(* --- SQLite: 1000 row inserts, one fsync each (scaled to 150) --------------- *)
(* The fsync after every insert defeats the writeback cache: every insert
   pays the FUSE round trips (paper: 1.9x). *)

let sqlite =
  w "SQlite" ~paper:1.9
    ~setup:(fun env -> write_file env (pb env "db.sqlite") (String.make (kib 16) 's'))
    ~run:(fun env ->
      let db = openf env (p env "db.sqlite") [ Types.O_RDWR; Types.O_APPEND ] 0 in
      for i = 0 to 149 do
        (* rollback journal: create, write the old page, sync *)
        let jpath = p env "db.sqlite-journal" in
        let j = openf env jpath [ Types.O_CREAT; Types.O_WRONLY ] 0o644 in
        write_all env j (String.make (kib 1) 'j');
        fsync env j;
        closef env j;
        (* the insert itself *)
        write_all env db (String.make 200 'r');
        cpu env 4_000; (* SQL parse + b-tree update *)
        fsync env db;
        (* commit: delete the journal *)
        unlink env jpath;
        ignore i
      done;
      closef env db)
    ()

(* --- Threaded I/O: 4 concurrent readers / writers over a 64 MB file --------- *)
(* Reads are cache-served on both sides (paper: 1.1x); writes re-dirty the
   same regions and the longer writeback window absorbs them (0.3x). *)

let threaded_io_read =
  w "Threaded I/O: Read" ~paper:1.1 ~concurrency:4
    ~setup:(fun env -> write_file env (pb env "tio") (String.make (mib 1) 'x'))
    ~run:(fun env ->
      let fds = List.init 4 (fun _ -> openf env (p env "tio") [ Types.O_RDONLY ] 0) in
      (* four reader threads over the same file, as concurrent tasks *)
      concurrently env
        (List.map
           (fun fd () ->
             for pass = 0 to 2 do
               ignore pass;
               seq_read env fd ~total:(mib 1) ~record:(kib 64)
             done)
           fds);
      List.iter (closef env) fds)
    ()

let threaded_io_write =
  w "Threaded I/O: Write" ~paper:0.3 ~concurrency:4
    ~setup:(fun env -> write_file env (pb env "tiow") (String.make (mib 1) 'x'))
    ~run:(fun env ->
      let fds = List.init 4 (fun _ -> openf env (p env "tiow") [ Types.O_RDWR ] 0) in
      let quarter = mib 1 / 4 in
      (* each "thread" rewrites its own quarter, as a concurrent task *)
      concurrently env
        (List.mapi
           (fun i fd () ->
             let base = i * quarter in
             for pass = 0 to 4 do
               ignore pass;
               let rec go off =
                 if off < quarter then begin
                   pwrite env fd ~off:(base + off) (String.make (kib 16) 'W');
                   go (off + kib 16)
                 end
               in
               go 0
             done)
           fds);
      List.iter (closef env) fds)
    ()

(* --- Unpack tarball: kernel source from one archive -------------------------- *)
(* Creates many small files like compilebench-create, but reads a single
   archive instead of a source tree: far fewer lookups (paper: 1.2x). *)

let unpack_tarball =
  w "Unpack tarball" ~paper:1.2
    ~setup:(fun env -> write_file env (pb env "linux.tar") (String.make (mib 2) 'T'))
    ~run:(fun env ->
      let tar = openf env (p env "linux.tar") [ Types.O_RDONLY ] 0 in
      mkdir env (p env "linux");
      let files = 150 in
      let fsize = mib 2 / files in
      for i = 0 to files - 1 do
        let data = pread env tar ~off:(i * fsize) ~len:fsize in
        (* gunzip of the compressed stream: ~8.5 us per KiB of output *)
        cpu env (String.length data * 8_500 / 1024);
        if i mod 15 = 0 then mkdir env (p env (Printf.sprintf "linux/d%d" (i / 15)));
        write_file env (p env (Printf.sprintf "linux/d%d/f%d" (i / 15) i)) data
      done;
      closef env tar)
    ()

(* --- the Figure 2 suite -------------------------------------------------------- *)

let figure2 = [
  aio_stress;
  apachebench;
  compilebench_compile;
  compilebench_create;
  compilebench_read;
  dbench 1 1.4;
  dbench 12 0.9;
  dbench 128 1.0;
  dbench 48 1.0;
  fs_mark;
  fio;
  gzip;
  iozone_read;
  iozone_write;
  postmark;
  pgbench;
  sqlite;
  threaded_io_read;
  threaded_io_write;
  unpack_tarball;
]
