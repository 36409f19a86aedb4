(** Wiring: FUSE connection + kernel-side driver + passthrough server = a
    mountable CntrFS.  Every CntrFS mount is built here: the xfstests
    harness and the benchmarks use this directly, and the full attach
    workflow ([cntr attach]) uses it to mount CntrFS inside a nested
    namespace. *)

open Repro_os
open Repro_vfs
open Repro_fuse

type t = {
  kernel : Kernel.t;
  root_path : string;
  opts : Opts.t;
  conn : Conn.t;
  driver : Driver.t;
  mutable server : Server.t;  (** swapped by {!recover} *)
  mutable server_proc : Proc.t;
  fs : Fsops.t;  (** mount this with {!Kernel.mount_at} *)
  fault : Repro_fault.Fault.t option;  (** the armed plane, when any *)
  mutable fault_hook : (op:string -> Proc.t -> Repro_util.Errno.t option) option;
      (** the backing-fault hook this session installed in the kernel,
          until {!disarm} *)
  mutable m_recoveries : Repro_obs.Metrics.counter option;
}

(** Create a serving session: [server_proc] serves [root_path] out of its
    own mount namespace.  [budget] is the page-cache budget the driver
    shares with the backing filesystems (double-buffering pressure).
    [conn] is the FUSE connection to serve — attach passes the one it
    opened on [/dev/fuse]; by default a fresh one is created ([sched] then
    picks its scheduler).  [create] sets the connection's worker count,
    background threshold and splice mode from [threads] and [opts].
    Serving starts before [create] returns.

    [fault] arms a fault plan: the connection consults it while serving,
    and the kernel's backing syscalls consult it for the server's process
    (tracked across {!recover}).  [retry] arms per-request deadlines with
    idempotent-opcode retry.  With neither, the plane is off and the
    session behaves byte-identically to one built before the plane
    existed. *)
val create :
  kernel:Kernel.t ->
  server_proc:Proc.t ->
  root_path:string ->
  ?opts:Opts.t ->
  ?threads:int ->
  ?conn:Conn.t ->
  ?sched:Repro_sched.Sched.t ->
  ?fault:Repro_fault.Fault.plan ->
  ?retry:Repro_fault.Fault.retry ->
  budget:Mem_budget.t ->
  unit ->
  t

val fs : t -> Fsops.t

(** The session's observability handle (the kernel's): all [fuse.*],
    [cntrfs.*] and [vfs.page_cache.fuse.*] metrics for this mount land
    here, plus the [cntrfs.server.threads] gauge and the queue metrics
    ([fuse.queue.depth.*], [fuse.inflight*], [cntrfs.worker.<i>.busy_ns]). *)
val obs : t -> Repro_obs.Obs.t

(** The armed fault plane, when the session was created with one. *)
val fault : t -> Repro_fault.Fault.t option

(** Take this session's backing-fault hook out of the kernel, if it is
    still the installed one; a hook installed since by another session
    stays.  Attach calls it on detach. *)
val disarm : t -> unit

(** Relaunch the CntrFS server after a crash: fork a replacement process,
    replay the driver's inode map into it ({!Server.restore}), swap the
    handler, revive the connection and reopen the driver's file handles.
    Counts under [session.recoveries]. *)
val recover : t -> unit

(** Teardown barrier: wait until every queued request (including one-way
    forgets/releases) has been served. *)
val quiesce : t -> unit
