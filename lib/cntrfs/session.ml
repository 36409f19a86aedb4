(* Wiring: connection + driver + server = a mounted CntrFS.  Every CntrFS
   mount is built here: the xfstests harness and the benchmarks mount it
   directly, and the full CNTR attach flow (lib/core) mounts it inside a
   nested namespace over the connection it opened on /dev/fuse. *)

open Repro_vfs
open Repro_os
open Repro_fuse
module Fault = Repro_fault.Fault

type t = {
  kernel : Kernel.t;
  root_path : string;
  opts : Opts.t;
  conn : Conn.t;
  driver : Driver.t;
  mutable server : Server.t;
  mutable server_proc : Proc.t;
  fs : Fsops.t;
  fault : Fault.t option;
  mutable fault_hook : (op:string -> Proc.t -> Repro_util.Errno.t option) option;
  mutable m_recoveries : Repro_obs.Metrics.counter option;
}

(* The one mapping from mount options to a server serving [root_path] as
   [proc]: [create] and [recover] both launch through it. *)
let launch_server ~kernel ~conn ~proc ~root_path opts =
  Server.create ~sched:(Conn.sched conn) ~kernel ~proc ~root_path
    ~handle_cache:opts.Opts.handle_cache
    ~valid_ns:(opts.Opts.entry_timeout_ns, opts.Opts.attr_timeout_ns)
    ~passthrough:opts.Opts.passthrough ()

(* Create a CntrFS session: the server process [server_proc] serves
   [root_path] out of its own mount namespace.  The returned [fs] can be
   mounted anywhere with [Kernel.mount_at].  [conn] is the FUSE connection
   to serve (attach passes the one it opened on /dev/fuse); by default a
   fresh one is created.  [sched] is the discrete-event scheduler a fresh
   connection's worker fibers run on; benchmarks pass the workload's so
   client tasks and workers interleave, and it defaults to a private one
   over the kernel's clock.

   [fault] arms a fault plan over the session: the connection consults it
   while serving, and the kernel's backing syscalls consult it for the
   server's process (tracked across recovery).  [retry] arms per-request
   deadlines + idempotent retry.  Neither given = the plane stays off and
   the session is byte-identical to an unarmed one. *)
let create ~kernel ~server_proc ~root_path ?(opts = Opts.cntr_default) ?(threads = 4) ?conn
    ?sched ?fault ?retry ~budget () =
  let obs = kernel.Kernel.obs in
  let conn =
    match conn with
    | Some conn -> conn
    | None -> Conn.create ~obs ?sched ~clock:kernel.Kernel.clock ~cost:kernel.Kernel.cost ()
  in
  conn.Conn.threads <- threads;
  conn.Conn.max_background <- opts.Opts.max_background;
  conn.Conn.splice_read <- opts.Opts.splice_read;
  conn.Conn.splice_write <- opts.Opts.splice_write;
  let metrics = Repro_obs.Obs.metrics obs in
  Repro_obs.Metrics.set
    (Repro_obs.Metrics.gauge metrics "cntrfs.server.threads")
    (float_of_int threads);
  let server = launch_server ~kernel ~conn ~proc:server_proc ~root_path opts in
  Conn.set_handler conn (Server.handle server);
  let driver = Driver.create ~conn ~opts ~budget in
  let plane = Option.map (Fault.arm ~obs ~clock:kernel.Kernel.clock) fault in
  (match plane, retry with
  | None, None -> ()
  | _ -> Conn.supervise conn ?fault:plane ?retry ());
  (* §3.2.2: the server blocks until the mounting side signals, over the
     shared Unix socketpair, that CntrFS is mounted.  No request can reach
     a mount that does not exist yet, so serving starts here. *)
  Conn.start_serving conn;
  let t =
    {
      kernel;
      root_path;
      opts;
      conn;
      driver;
      server;
      server_proc;
      fs = Driver.ops driver;
      fault = plane;
      fault_hook = None;
      m_recoveries = None;
    }
  in
  (match plane with
  | Some f ->
      (* Backing-store faults hit the server's syscalls only — whichever
         process is currently serving, so recovery's relaunch stays
         covered while app syscalls never are. *)
      let hook ~op proc =
        if proc == t.server_proc then Fault.backing_errno f ~op else None
      in
      t.fault_hook <- Some hook;
      Kernel.set_fault kernel t.fault_hook
  | None -> ());
  t

(* The kernel's fault hook captures the session, so a detached session
   must take it down, or it stays reachable.  Only its own hook: a session
   armed later has replaced it and keeps it. *)
let disarm t =
  (match (t.fault_hook, t.kernel.Kernel.k_fault) with
  | Some mine, Some installed when mine == installed -> Kernel.set_fault t.kernel None
  | _ -> ());
  t.fault_hook <- None

let fs t = t.fs
let obs t = Conn.obs t.conn
let fault t = t.fault

(* Relaunch the CntrFS server after a crash: fork a replacement process
   (same namespace view), teach it the driver's live ino map, swap the
   handler, revive the connection and reopen the driver's file handles.
   The mount, the driver caches and dirty writeback pages all survive. *)
let recover t =
  let pairs = Driver.ino_paths t.driver in
  let old = t.server_proc in
  let np = Kernel.fork t.kernel old in
  np.Proc.comm <- old.Proc.comm;
  let server = launch_server ~kernel:t.kernel ~conn:t.conn ~proc:np ~root_path:t.root_path t.opts in
  Server.restore server pairs;
  t.server <- server;
  t.server_proc <- np;
  if old.Proc.alive then Kernel.exit t.kernel old 0;
  Conn.set_handler t.conn (Server.handle server);
  Conn.revive t.conn;
  Driver.on_server_restart t.driver;
  let c =
    match t.m_recoveries with
    | Some c -> c
    | None ->
        let c =
          Repro_obs.Metrics.counter
            (Repro_obs.Obs.metrics (Conn.obs t.conn))
            "session.recoveries"
        in
        t.m_recoveries <- Some c;
        c
  in
  Repro_obs.Metrics.incr c

(* Teardown barrier: wait out the background class (pending forgets,
   releases) so metrics snapshots are quiescent. *)
let quiesce t = Conn.quiesce t.conn
