(* The CNTRFS userspace server: a FUSE passthrough filesystem.  It runs as a
   process (usually root) inside the fat container or on the host and
   translates FUSE requests into kernel syscalls against its own mount
   namespace — this is how files of the fat container appear inside the
   slim container's nested namespace.

   Faithful cost/semantic details from the paper:
   - every LOOKUP costs a server-side open()+stat() pair to detect
     hardlinks (the compilebench/postmark bottleneck, §5.2.2);
   - operations are replayed under the *server's* credential with only
     fsuid/fsgid switched to the caller (setfsuid emulation) — so
     RLIMIT_FSIZE (generic/228) and setgid-clearing (generic/375) behave
     like the server, not the caller. *)

open Repro_util
open Repro_vfs
open Repro_os
open Repro_fuse

type entry = {
  mutable e_path : string; (* server-namespace path *)
  e_backing_ino : int;
  (* a kernel file handle captured at lookup time: CNTR holds an open
     handle per inode so hardlinked/renamed-away inodes stay reachable
     after their looked-up name disappears *)
  e_handle : (int * string) option;
  mutable e_nlookup : int;
}

type server_handle = { sh_fd : int; sh_ino : int }

(* One slot of the bounded-LRU handle cache: a lookup result (driver ino +
   backing stat) the server may re-serve without the open()+stat() pair,
   keyed by backing (dev, ino) — the single backing filesystem stands in
   for the dev.  Invalidated by every mutating op that touches the inode or
   its name. *)
type hc_slot = {
  hc_ino : int; (* driver ino *)
  hc_stat : Types.stat; (* backing stat (st_ino = backing ino) *)
  mutable hc_tick : int; (* LRU stamp *)
}

(* One live passthrough grant, keyed by the server fh it was issued with.
   The bounded LRU caps how many backing fds the server promises to keep
   stable for driver-side bypass I/O; overflow revokes the coldest. *)
type pt_slot = {
  ps_grant : Protocol.grant;
  ps_bino : int; (* backing ino, for mutation-driven revocation *)
  mutable ps_tick : int; (* LRU stamp *)
}

module Metrics = Repro_obs.Metrics

(* A path index: the values bound at each server path, plus the indexed
   paths one '/' below it, so "everything at or under [dir]" is a walk down
   from [dir] rather than a scan of the table.  A path stays linked into its
   parent's child set while it holds values or children; missing ancestors
   are linked on demand up to "/", so a subtree stays reachable when an
   intermediate directory holds no value.  Parents are purely lexical (the
   text before the last '/'), matching how the server builds paths with
   [Pathx.concat]. *)
module Pathidx : sig
  type 'a t

  val create : int -> 'a t

  (* the values bound at exactly [path] ([] when none) *)
  val get : 'a t -> string -> 'a list

  (* replace the values at [path]; [] unbinds it *)
  val set : 'a t -> string -> 'a list -> unit

  (* every bound path at or under [dir], with its values *)
  val subtree : 'a t -> string -> (string * 'a list) list
end = struct
  (* [kids] is allocated with the first child: most paths are files *)
  type 'a node = {
    mutable vals : 'a list;
    mutable kids : (string, unit) Hashtbl.t option;
  }

  type 'a t = (string, 'a node) Hashtbl.t

  let create n : 'a t = Hashtbl.create n

  let parent p =
    match String.rindex_opt p '/' with
    | None | Some 0 -> "/"
    | Some i -> String.sub p 0 i

  let rec node t p =
    match Hashtbl.find_opt t p with
    | Some n -> n
    | None ->
        let n = { vals = []; kids = None } in
        Hashtbl.replace t p n;
        if p <> "/" then begin
          let pn = node t (parent p) in
          match pn.kids with
          | Some kids -> Hashtbl.replace kids p ()
          | None ->
              let kids = Hashtbl.create 8 in
              Hashtbl.replace kids p ();
              pn.kids <- Some kids
        end;
        n

  (* Drop [p] once it holds nothing, then its newly empty ancestors. *)
  let rec prune t p n =
    let childless =
      match n.kids with None -> true | Some kids -> Hashtbl.length kids = 0
    in
    if n.vals = [] && childless then begin
      Hashtbl.remove t p;
      if p <> "/" then
        let pp = parent p in
        match Hashtbl.find_opt t pp with
        | Some ({ kids = Some kids; _ } as pn) ->
            Hashtbl.remove kids p;
            prune t pp pn
        | _ -> ()
    end

  let get t p = match Hashtbl.find_opt t p with Some n -> n.vals | None -> []

  let set t p vals =
    match vals, Hashtbl.find_opt t p with
    | [], None -> ()
    | [], Some n ->
        n.vals <- [];
        prune t p n
    | _, Some n -> n.vals <- vals
    | _, None -> (node t p).vals <- vals

  let subtree t dir =
    let rec walk p acc =
      match Hashtbl.find_opt t p with
      | None -> acc
      | Some n ->
          let acc = if n.vals = [] then acc else (p, n.vals) :: acc in
          match n.kids with
          | None -> acc
          | Some kids -> Hashtbl.fold (fun kid () acc -> walk kid acc) kids acc
    in
    walk dir []
end

type t = {
  kernel : Kernel.t;
  proc : Proc.t;
  (* Shard-locked table discipline: the inode map and the handle cache
     are guarded by fixed-size lock tables hash-sharded on the backing
     inode, mirroring the sharding of the FUSE dirop locks.  The guarded
     segments are pure table manipulation (no effects, no virtual-time
     consumption), so the holds are zero-width on the virtual timeline —
     the locking is semantically real but timing-free.  [sched = None]
     (standalone servers in unit tests) skips the brackets. *)
  sched : Repro_sched.Sched.t option;
  ino_locks : Repro_sched.Sched.mutex array;
  hc_locks : Repro_sched.Sched.mutex array;
  inos : (int, entry) Hashtbl.t; (* driver ino -> entry *)
  (* e_path -> the driver inos interned there: exactly the (e_path, ino)
     pairs of [inos].  Several inos share a path when an unlinked entry
     outlives its name and the name is recreated. *)
  paths : int Pathidx.t;
  by_backing : (int, int) Hashtbl.t; (* backing st_ino -> driver ino *)
  fhs : (int, server_handle) Hashtbl.t;
  mutable next_ino : int;
  mutable next_fh : int;
  (* metadata fast path: the handle cache (capacity 0 = disabled) and the
     validity windows stamped into READDIRPLUS replies *)
  hc_cap : int;
  hc : (int, hc_slot) Hashtbl.t; (* backing ino -> slot *)
  hc_paths : int Pathidx.t; (* path -> [backing ino] *)
  mutable hc_tick : int;
  (* passthrough plane: live grants (capacity 0 = disabled) and the
     revocation counter, shared with the driver's registry entry *)
  pt_cap : int;
  pts : (int, pt_slot) Hashtbl.t; (* server fh -> slot *)
  mutable pt_tick : int;
  pt_m_revoked : Metrics.counter option;
  rdp_entry_valid_ns : int;
  rdp_attr_valid_ns : int;
  (* "cntrfs.*" counters on the kernel's registry: lookups, the backing
     syscalls they cost (the open()+stat() tax), and payload bytes *)
  m_lookups : Metrics.counter;
  m_backing_ops : Metrics.counter;
  m_read_bytes : Metrics.counter;
  m_write_bytes : Metrics.counter;
  m_hc_hits : Metrics.counter;
  m_hc_misses : Metrics.counter;
  m_hc_evictions : Metrics.counter;
}

let root_ino = 1

let shard_count = 64

(* Golden-ratio multiplicative hash, same spread as the dirop shards. *)
let shard key = key * 0x9E3779B9 land (shard_count - 1)

let create ?sched ~kernel ~proc ~root_path ?(handle_cache = 0) ?(valid_ns = (0, 0))
    ?(passthrough = 0) () =
  let metrics = Repro_obs.Obs.metrics kernel.Kernel.obs in
  let m_lookups = Metrics.counter metrics "cntrfs.lookup.count" in
  let m_backing_ops = Metrics.counter metrics "cntrfs.lookup.backing_ops" in
  (* Lookup amplification: backing syscalls per driver-visible lookup
     (2.0 = the plain open+stat pair; higher when handles are captured;
     handle-cache hits and READDIRPLUS entries pull it down — the metric to
     watch in the e3e ablation). *)
  Metrics.register_derived metrics "cntrfs.lookup.amplification" (fun () ->
      let l = Metrics.value m_lookups in
      if l = 0 then 0. else float_of_int (Metrics.value m_backing_ops) /. float_of_int l);
  let m_hc_hits = Metrics.counter metrics "cntrfs.handle_cache.hits" in
  let m_hc_misses = Metrics.counter metrics "cntrfs.handle_cache.misses" in
  Metrics.register_derived metrics "cntrfs.handle_cache.hit_ratio" (fun () ->
      let h = Metrics.value m_hc_hits and m = Metrics.value m_hc_misses in
      if h + m = 0 then 0. else float_of_int h /. float_of_int (h + m));
  let t =
    {
      kernel;
      proc;
      sched;
      ino_locks = Array.init shard_count (fun _ -> Repro_sched.Sched.mutex ());
      hc_locks = Array.init shard_count (fun _ -> Repro_sched.Sched.mutex ());
      inos = Hashtbl.create 256;
      paths = Pathidx.create 16;
      by_backing = Hashtbl.create 256;
      fhs = Hashtbl.create 32;
      next_ino = 2;
      next_fh = 1;
      hc_cap = max 0 handle_cache;
      hc = Hashtbl.create 256;
      hc_paths = Pathidx.create 256;
      hc_tick = 0;
      pt_cap = max 0 passthrough;
      pts = Hashtbl.create 16;
      pt_tick = 0;
      pt_m_revoked =
        (if passthrough > 0 then
           Some (Metrics.counter metrics "fuse.passthrough.revocations")
         else None);
      rdp_entry_valid_ns = fst valid_ns;
      rdp_attr_valid_ns = snd valid_ns;
      m_lookups;
      m_backing_ops;
      m_read_bytes = Metrics.counter metrics "cntrfs.read.bytes";
      m_write_bytes = Metrics.counter metrics "cntrfs.write.bytes";
      m_hc_hits;
      m_hc_misses;
      m_hc_evictions = Metrics.counter metrics "cntrfs.handle_cache.evictions";
    }
  in
  Hashtbl.replace t.inos root_ino
    { e_path = root_path; e_backing_ino = 0; e_handle = None; e_nlookup = 1 };
  Pathidx.set t.paths root_path [ root_ino ];
  t

let ( let* ) = Result.bind

(* Run a table segment under one shard of a lock table. *)
let locked t locks i f =
  match t.sched with
  | None -> f ()
  | Some s -> Repro_sched.Sched.with_lock s locks.(i) f

let with_ino t bino f = locked t t.ino_locks (shard bino) f
let with_hc t bino f = locked t t.hc_locks (shard bino) f

let entry t ino =
  match Hashtbl.find_opt t.inos ino with
  | Some e -> Ok e
  | None -> Error Errno.ENOENT

let path_of t ino =
  let* e = entry t ino in
  Ok e.e_path

(* Keep [paths] in step with [inos]: every insert, removal or path change of
   an entry goes through these two. *)
let index t path ino = Pathidx.set t.paths path (ino :: Pathidx.get t.paths path)

let unindex t path ino =
  Pathidx.set t.paths path (List.filter (fun i -> i <> ino) (Pathidx.get t.paths path))

(* setfsuid/setfsgid emulation: run [f] with the caller's uid/gid but the
   server's capabilities and rlimits. *)
let with_fsuid t (ctx : Protocol.ctx) f =
  let cred = t.proc.Proc.cred in
  let saved_uid = cred.Proc.uid and saved_gid = cred.Proc.gid in
  cred.Proc.uid <- ctx.Protocol.c_uid;
  cred.Proc.gid <- ctx.Protocol.c_gid;
  let result = f () in
  cred.Proc.uid <- saved_uid;
  cred.Proc.gid <- saved_gid;
  result

(* Present a backing stat to the driver: the inode number must be the
   driver-visible one. *)
let xlate_stat st ~ino = { st with Types.st_ino = ino }

(* --- handle cache -------------------------------------------------------- *)

let hc_touch t (slot : hc_slot) =
  t.hc_tick <- t.hc_tick + 1;
  slot.hc_tick <- t.hc_tick

(* Eviction is O(capacity); capacities are small (the cache is bounded by
   construction) and eviction only happens on insert past the cap. *)
let hc_evict_if_full t =
  if Hashtbl.length t.hc > t.hc_cap then begin
    let victim =
      Hashtbl.fold
        (fun bino (slot : hc_slot) acc ->
          match acc with
          | Some (_, (best : hc_slot)) when best.hc_tick <= slot.hc_tick -> acc
          | _ -> Some (bino, slot))
        t.hc None
    in
    match victim with
    | Some (bino, _) ->
        Hashtbl.remove t.hc bino;
        (* the path -> backing mapping may dangle; hits re-check [t.hc] *)
        Metrics.incr t.m_hc_evictions
    | None -> ()
  end

(* Hardlinked files are uncacheable: their link count can drop through a
   sibling path (unlink of another name) that arrives with no prior LOOKUP
   — the driver's dentry cache satisfies the name — so no [hc_paths]
   binding exists to invalidate the slot through.  Directories are exempt
   (no aliases; nlink moves only via mkdir/rmdir, which do invalidate). *)
let hc_cacheable (st : Types.stat) =
  st.Types.st_kind = Types.Dir || st.Types.st_nlink <= 1

(* Eviction scans the whole table while holding only the inserter's shard:
   the LRU scan tolerates racing inserts (it only needs *a* cold victim,
   not *the* coldest), so cross-shard exactness is not worth a global
   lock. *)
let hc_insert t ~path ~(st : Types.stat) ~ino =
  if t.hc_cap > 0 && hc_cacheable st then
    with_hc t st.Types.st_ino (fun () ->
        let slot = { hc_ino = ino; hc_stat = st; hc_tick = 0 } in
        Hashtbl.replace t.hc st.Types.st_ino slot;
        hc_touch t slot;
        Pathidx.set t.hc_paths path [ st.Types.st_ino ];
        hc_evict_if_full t)

(* A known-valid slot for [path], or None.  Validity requires the slot to
   still be resident *and* its driver ino still interned (monotonic ino
   allocation makes a forgotten ino detectable). *)
(* The path -> backing probe is an optimistic unguarded read; everything it
   yields is revalidated under the backing ino's shard lock (slot residency,
   st_ino match, driver ino still interned), so a stale routing entry can
   only produce a miss, never a wrong hit. *)
let hc_find t path =
  if t.hc_cap = 0 then None
  else
    match Pathidx.get t.hc_paths path with
    | [] -> None
    | bino :: _ ->
        with_hc t bino (fun () ->
            match Hashtbl.find_opt t.hc bino with
            | Some slot
              when slot.hc_stat.Types.st_ino = bino
                   && Hashtbl.mem t.inos slot.hc_ino ->
                Some slot
            | _ -> None)

let hc_invalidate_backing t bino =
  if t.hc_cap > 0 then with_hc t bino (fun () -> Hashtbl.remove t.hc bino)

let hc_invalidate_ino t ino =
  if t.hc_cap > 0 then
    match Hashtbl.find_opt t.inos ino with
    | Some e ->
        with_hc t e.e_backing_ino (fun () ->
            Hashtbl.remove t.hc e.e_backing_ino)
    | None -> ()

let hc_invalidate_path t path =
  if t.hc_cap > 0 then
    match Pathidx.get t.hc_paths path with
    | bino :: _ ->
        with_hc t bino (fun () ->
            Pathidx.set t.hc_paths path [];
            Hashtbl.remove t.hc bino)
    | [] -> ()

(* Rename moves a whole subtree: drop everything at or under [dir].  The
   collection pass is an unguarded walk of [hc_paths] down from [dir], so it
   touches only the cached paths in the subtree; each removal re-takes its
   own shard. *)
let hc_invalidate_subtree t dir =
  if t.hc_cap > 0 then
    List.iter
      (fun (p, binos) ->
        List.iter
          (fun bino ->
            with_hc t bino (fun () ->
                Pathidx.set t.hc_paths p [];
                Hashtbl.remove t.hc bino))
          binos)
      (Pathidx.subtree t.hc_paths dir)

(* --- passthrough grants --------------------------------------------------- *)

(* Revoke the grant issued with server fh [sfh]: flip the capability dead
   and count it — something was taken away from a live handle, and the
   driver will fall back to round trips when it next checks. *)
let pt_revoke t sfh =
  match Hashtbl.find_opt t.pts sfh with
  | None -> ()
  | Some slot ->
      Hashtbl.remove t.pts sfh;
      if slot.ps_grant.Protocol.g_valid then begin
        slot.ps_grant.Protocol.g_valid <- false;
        match t.pt_m_revoked with Some c -> Metrics.incr c | None -> ()
      end

(* End of life (RELEASE/DESTROY): the grant dies with its handle — no
   revocation counted, nothing was taken from a live handle. *)
let pt_drop t sfh =
  match Hashtbl.find_opt t.pts sfh with
  | None -> ()
  | Some slot ->
      Hashtbl.remove t.pts sfh;
      slot.ps_grant.Protocol.g_valid <- false

(* A server-side mutation of the backing inode: every grant on it must go
   — the driver has to observe the change through round trips, not
   through a bypassed fd.  Revocations run in fh order so the counter's
   trajectory is deterministic. *)
let pt_revoke_backing t bino =
  if t.pt_cap > 0 then
    Hashtbl.fold
      (fun sfh slot acc -> if slot.ps_bino = bino then sfh :: acc else acc)
      t.pts []
    |> List.sort compare
    |> List.iter (pt_revoke t)

let pt_touch t sfh =
  match Hashtbl.find_opt t.pts sfh with
  | None -> ()
  | Some slot ->
      t.pt_tick <- t.pt_tick + 1;
      slot.ps_tick <- t.pt_tick

(* Bounded grants: past the cap, the coldest grant is revoked.  Ticks are
   unique, so the victim is unambiguous regardless of table order. *)
let pt_evict_if_full t =
  while Hashtbl.length t.pts > t.pt_cap do
    let victim =
      Hashtbl.fold
        (fun sfh (slot : pt_slot) acc ->
          match acc with
          | Some (_, best_tick) when best_tick <= slot.ps_tick -> acc
          | _ -> Some (sfh, slot.ps_tick))
        t.pts None
    in
    match victim with Some (sfh, _) -> pt_revoke t sfh | None -> ()
  done

(* Invalidate both fast planes for a driver-visible inode: the lookup
   handle cache (stale stat) and any passthrough grants (data-plane
   coherence).  The hc half is gated on its own capacity inside; the pt
   half must run even with the handle cache off. *)
let invalidate_ino t ino =
  hc_invalidate_ino t ino;
  if t.pt_cap > 0 then
    match Hashtbl.find_opt t.inos ino with
    | Some e -> pt_revoke_backing t e.e_backing_ino
    | None -> ()

(* Does the interned path still name the same backing inode?  After
   "unlink + recreate under the same name" the path aliases a *different*
   file; CNTR's per-inode handles keep serving the original.  Returns the
   path when valid, None when stale. *)
let checked_path t e =
  match e.e_handle with
  | None -> Some e.e_path (* directories/symlinks: path-identified *)
  | Some _ -> (
      match Kernel.lstat t.kernel t.proc e.e_path with
      | Ok st when st.Types.st_ino = e.e_backing_ino -> Some e.e_path
      | _ -> None)

(* Run [f fd] on a transient fd for a stale-path entry (via its handle). *)
let with_handle_fd t e ?(flags = [ Types.O_RDONLY ]) f =
  match e.e_handle with
  | None -> Error Errno.ENOENT
  | Some handle -> (
      match Kernel.open_by_handle_at t.kernel t.proc ~flags handle with
      | Error _ -> Error Errno.ENOENT
      | Ok fd ->
          let r = f fd in
          ignore (Kernel.close t.kernel t.proc fd);
          r)

(* Path-based op with handle fallback when the path went stale. *)
let on_entry t ino ~via_path ~via_fd =
  let* e = entry t ino in
  match checked_path t e with
  | Some path -> via_path path
  | None -> with_handle_fd t e via_fd

(* Allocate (or reuse, for hardlinks) a driver inode for [path].  The
   dedup check and the map insert sit under the backing ino's shard lock,
   so a racing lookup of the same backing inode cannot double-intern;
   [next_ino] itself is a relaxed monotonic counter (an atomic fetch-add
   in a parallel implementation). *)
let intern t ~path ~(st : Types.stat) =
  with_ino t st.Types.st_ino (fun () ->
      let reuse =
        match st.Types.st_kind with
        | Types.Dir -> None (* directories are never hardlinked *)
        | _ -> Hashtbl.find_opt t.by_backing st.Types.st_ino
      in
      match reuse with
      | Some ino ->
          let e = Hashtbl.find t.inos ino in
          e.e_nlookup <- e.e_nlookup + 1;
          ino
      | None ->
          let ino = t.next_ino in
          t.next_ino <- ino + 1;
          (* the open()-per-lookup also yields a persistent handle (files
             and symlinks can be hardlinked away from their looked-up name) *)
          let handle =
            match st.Types.st_kind with
            | Types.Reg | Types.Symlink | Types.Fifo | Types.Sock ->
                Metrics.incr t.m_backing_ops;
                Result.to_option
                  (Kernel.name_to_handle_at t.kernel t.proc ~follow:false path)
            | _ -> None
          in
          Hashtbl.replace t.inos ino
            {
              e_path = path;
              e_backing_ino = st.Types.st_ino;
              e_handle = handle;
              e_nlookup = 1;
            };
          index t path ino;
          Hashtbl.replace t.by_backing st.Types.st_ino ino;
          ino)

(* Recovery: teach a freshly created server the driver's existing ino
   space.  [pairs] comes from [Driver.ino_paths] — (driver ino, path
   relative to the server root, nlookup).  Every path is revalidated
   against the backing store (the lstat and handle recapture are charged,
   like the original lookups were); names that vanished while the server
   was down are skipped, so the driver's stale dentries for them fail on
   first use exactly as an expired cache entry would. *)
let restore t pairs =
  let root = (Hashtbl.find t.inos root_ino).e_path in
  List.iter
    (fun (ino, rel, nlookup) ->
      let path = if String.equal rel "" then root else Pathx.concat root rel in
      match Kernel.lstat t.kernel t.proc path with
      | Error _ -> ()
      | Ok st ->
          Metrics.incr t.m_backing_ops;
          let handle =
            match st.Types.st_kind with
            | Types.Reg | Types.Symlink | Types.Fifo | Types.Sock ->
                Metrics.incr t.m_backing_ops;
                Result.to_option
                  (Kernel.name_to_handle_at t.kernel t.proc ~follow:false path)
            | _ -> None
          in
          (match Hashtbl.find_opt t.inos ino with
          | Some old -> unindex t old.e_path ino
          | None -> ());
          Hashtbl.replace t.inos ino
            {
              e_path = path;
              e_backing_ino = st.Types.st_ino;
              e_handle = handle;
              e_nlookup = max 1 nlookup;
            };
          index t path ino;
          (match st.Types.st_kind with
          | Types.Dir -> ()
          | _ -> Hashtbl.replace t.by_backing st.Types.st_ino ino);
          if ino >= t.next_ino then t.next_ino <- ino + 1)
    pairs

let handle_lookup t ctx ~parent ~name =
  let* dir = path_of t parent in
  let path = Pathx.concat dir name in
  match hc_find t path with
  | Some slot ->
      (* Handle-cache hit: the entry is known valid (every mutating op
         invalidates), so the open()+stat() pair is skipped entirely — an
         in-memory map probe, like a dcache hit. *)
      Metrics.incr t.m_lookups;
      Metrics.incr t.m_hc_hits;
      hc_touch t slot;
      Clock.consume_int t.kernel.Kernel.clock t.kernel.Kernel.cost.Cost.dentry_ns;
      let ino = slot.hc_ino in
      let e = Hashtbl.find t.inos ino in
      e.e_nlookup <- e.e_nlookup + 1;
      Ok (Protocol.R_entry (ino, xlate_stat slot.hc_stat ~ino))
  | None ->
      if t.hc_cap > 0 then Metrics.incr t.m_hc_misses;
      (* The hardlink-detection tax: one open() for a handle plus one stat(),
         per lookup (§5.2.2, Compilebench). *)
      Metrics.incr t.m_lookups;
      Metrics.add t.m_backing_ops 2;
      Clock.consume_int t.kernel.Kernel.clock t.kernel.Kernel.cost.Cost.backing_lookup_ns;
      let* st = with_fsuid t ctx (fun () -> Kernel.lstat t.kernel t.proc path) in
      let ino = intern t ~path ~st in
      hc_insert t ~path ~st ~ino;
      Ok (Protocol.R_entry (ino, xlate_stat st ~ino))

let handle_forget t pairs =
  List.iter
    (fun (ino, n) ->
      match Hashtbl.find_opt t.inos ino with
      | Some e when ino <> root_ino ->
          with_ino t e.e_backing_ino (fun () ->
              e.e_nlookup <- e.e_nlookup - n;
              if e.e_nlookup <= 0 then begin
                Hashtbl.remove t.inos ino;
                unindex t e.e_path ino;
                Hashtbl.remove t.by_backing e.e_backing_ino
              end);
          if e.e_nlookup <= 0 then hc_invalidate_backing t e.e_backing_ino
      | _ -> ())
    pairs;
  Protocol.R_ok

(* The ino a rename onto [dst] displaces: the newest intern at [dst] (the
   highest driver ino), since an unlinked-but-unforgotten entry can share
   the path with its recreated successor. *)
let displaced t dst =
  match Pathidx.get t.paths dst with
  | [] -> None
  | inos -> Some (List.fold_left max min_int inos)

(* After a successful rename, every interned path at or under [src] moves
   to the same place under [dst].  Server paths are built by
   [Pathx.concat] from single names, so "under [src]" is the plain prefix
   [src ^ "/"] and the index walk visits only the moved entries.  All of
   them are unbound before any is rebound, so the subtree may land on
   entries still interned at or under [dst]. *)
let remap_paths t ~src ~dst =
  let moved = Pathidx.subtree t.paths src in
  List.iter (fun (p, _) -> Pathidx.set t.paths p []) moved;
  let n = String.length src in
  List.iter
    (fun (p, inos) ->
      let p' = dst ^ String.sub p n (String.length p - n) in
      List.iter (fun ino -> (Hashtbl.find t.inos ino).e_path <- p') inos;
      Pathidx.set t.paths p' (inos @ Pathidx.get t.paths p'))
    moved

let open_flags_for_server flags =
  (* The server opens with the caller's intent but never O_DIRECT (FUSE
     already rejected it), never O_CREAT/O_EXCL (CREATE handles that), and
     never O_APPEND — append offsets are resolved by the kernel driver, and
     WRITE requests carry explicit offsets that must be honored.  Write-only
     opens are widened to O_RDWR: the writeback cache needs to read partial
     pages back for read-modify-write. *)
  flags
  |> List.filter (fun f ->
         not (List.mem f [ Types.O_DIRECT; Types.O_CREAT; Types.O_EXCL; Types.O_APPEND ]))
  |> List.map (function Types.O_WRONLY -> Types.O_RDWR | f -> f)

let alloc_fh t ~fd ~ino =
  let fh = t.next_fh in
  t.next_fh <- fh + 1;
  Hashtbl.replace t.fhs fh { sh_fd = fd; sh_ino = ino };
  fh

let fh t n =
  match Hashtbl.find_opt t.fhs n with
  | Some h -> Ok h
  | None -> Error Errno.EBADF

(* The main dispatch: one FUSE request in, one response out.  Runs in the
   server process's namespace; all costs are charged through the kernel. *)
let handle t (ctx : Protocol.ctx) (req : Protocol.req) : Protocol.resp =
  let k = t.kernel and p = t.proc in
  let wrap r = match r with Ok resp -> resp | Error e -> Protocol.R_err e in
  wrap
    (match req with
    | Protocol.Lookup { parent; name } -> handle_lookup t ctx ~parent ~name
    | Protocol.Forget pairs -> Ok (handle_forget t pairs)
    | Protocol.Getattr ino ->
        let* st =
          on_entry t ino
            ~via_path:(fun path -> Kernel.lstat k p path)
            ~via_fd:(fun fd -> Kernel.fstat k p fd)
        in
        Ok (Protocol.R_attr (xlate_stat st ~ino))
    | Protocol.Setattr (ino, sa) ->
        invalidate_ino t ino;
        let* st =
          on_entry t ino
            ~via_path:(fun path ->
              let* () = with_fsuid t ctx (fun () -> Kernel.setattr_path k p path sa) in
              Kernel.lstat k p path)
            ~via_fd:(fun fd -> with_fsuid t ctx (fun () -> Kernel.fsetattr k p fd sa))
        in
        Ok (Protocol.R_attr (xlate_stat st ~ino))
    | Protocol.Readlink ino ->
        let* target =
          on_entry t ino
            ~via_path:(fun path -> Kernel.readlink k p path)
            ~via_fd:(fun fd -> Kernel.freadlink k p fd)
        in
        Ok (Protocol.R_readlink target)
    | Protocol.Mknod { parent; name; kind; mode } ->
        let* dir = path_of t parent in
        let path = Pathx.concat dir name in
        let* () = with_fsuid t ctx (fun () -> Kernel.mknod k p path ~kind ~mode) in
        hc_invalidate_path t path;
        hc_invalidate_path t dir;
        handle_lookup t ctx ~parent ~name
    | Protocol.Mkdir { parent; name; mode } ->
        let* dir = path_of t parent in
        let path = Pathx.concat dir name in
        let* () = with_fsuid t ctx (fun () -> Kernel.mkdir k p path ~mode) in
        hc_invalidate_path t path;
        hc_invalidate_path t dir;
        handle_lookup t ctx ~parent ~name
    | Protocol.Unlink { parent; name } ->
        let* dir = path_of t parent in
        let* () = with_fsuid t ctx (fun () -> Kernel.unlink k p (Pathx.concat dir name)) in
        hc_invalidate_path t (Pathx.concat dir name);
        hc_invalidate_path t dir;
        Ok Protocol.R_ok
    | Protocol.Rmdir { parent; name } ->
        let* dir = path_of t parent in
        let* () = with_fsuid t ctx (fun () -> Kernel.rmdir k p (Pathx.concat dir name)) in
        hc_invalidate_path t (Pathx.concat dir name);
        hc_invalidate_path t dir;
        Ok Protocol.R_ok
    | Protocol.Symlink { parent; name; target } ->
        let* dir = path_of t parent in
        let path = Pathx.concat dir name in
        let* () = with_fsuid t ctx (fun () -> Kernel.symlink k p ~target ~linkpath:path) in
        hc_invalidate_path t path;
        hc_invalidate_path t dir;
        handle_lookup t ctx ~parent ~name
    | Protocol.Rename { src_parent; src_name; dst_parent; dst_name } ->
        let* sdir = path_of t src_parent in
        let* ddir = path_of t dst_parent in
        let src = Pathx.concat sdir src_name and dst = Pathx.concat ddir dst_name in
        (* found before [remap_paths] moves the src subtree onto [dst] *)
        let replaced = displaced t dst in
        let* () = with_fsuid t ctx (fun () -> Kernel.rename k p ~src ~dst) in
        remap_paths t ~src ~dst;
        (* the moved subtree's cached paths are all stale, the replaced
           target (if any) lost a link, and both parents' mtimes changed *)
        hc_invalidate_subtree t src;
        hc_invalidate_subtree t dst;
        hc_invalidate_path t sdir;
        hc_invalidate_path t ddir;
        Ok (Protocol.R_renamed replaced)
    | Protocol.Link { src; parent; name } ->
        let* dir = path_of t parent in
        let path = Pathx.concat dir name in
        hc_invalidate_ino t src;
        hc_invalidate_path t path;
        hc_invalidate_path t dir;
        let* () =
          on_entry t src
            ~via_path:(fun src_path ->
              with_fsuid t ctx (fun () -> Kernel.link k p ~target:src_path ~linkpath:path))
            ~via_fd:(fun fd -> with_fsuid t ctx (fun () -> Kernel.link_fd k p fd ~linkpath:path))
        in
        handle_lookup t ctx ~parent ~name
    | Protocol.Open { ino; flags; want_pt } ->
        let* e = entry t ino in
        let sflags = open_flags_for_server flags in
        let* fd =
          match checked_path t e with
          | Some path -> with_fsuid t ctx (fun () -> Kernel.open_ k p path sflags ~mode:0)
          | None -> (
              match e.e_handle with
              | None -> Error Errno.ENOENT
              | Some handle -> (
                  match Kernel.open_by_handle_at k p ~flags:sflags handle with
                  | Ok fd -> Ok fd
                  | Error _ -> Error Errno.ENOENT))
        in
        let sfh = alloc_fh t ~fd ~ino in
        (* Passthrough handshake: if the client asked and the plane is on,
           vet the file (regular files only — the backing fd must support
           plain positional I/O) and attach a grant to the reply.  The
           grant's closures carry the backing fd: reads/writes through
           them run on the server's proc with real backing costs, but no
           FUSE request ever exists for them. *)
        if want_pt && t.pt_cap > 0 then begin
          match Kernel.fstat k p fd with
          | Ok st when st.Types.st_kind = Types.Reg ->
              let bino = st.Types.st_ino in
              let grant =
                {
                  Protocol.g_ino = ino;
                  g_valid = true;
                  g_read =
                    (fun ~off ~len ->
                      pt_touch t sfh;
                      let* data = Kernel.pread k p fd ~off ~len in
                      Metrics.add t.m_read_bytes (String.length data);
                      Ok data);
                  g_write =
                    (fun wctx ~off data ->
                      pt_touch t sfh;
                      (* a bypassed write still moves the backing mtime and
                         size: the lookup fast path must not serve the old
                         stat *)
                      hc_invalidate_backing t bino;
                      let* n =
                        with_fsuid t wctx (fun () -> Kernel.pwrite k p fd ~off data)
                      in
                      Metrics.add t.m_write_bytes n;
                      Ok n);
                }
              in
              Hashtbl.replace t.pts sfh { ps_grant = grant; ps_bino = bino; ps_tick = 0 };
              pt_touch t sfh;
              pt_evict_if_full t;
              Ok (Protocol.R_open_pt (sfh, grant))
          | _ -> Ok (Protocol.R_open sfh)
        end
        else Ok (Protocol.R_open sfh)
    | Protocol.Create { parent; name; mode; flags } ->
        let* dir = path_of t parent in
        let path = Pathx.concat dir name in
        hc_invalidate_path t path;
        hc_invalidate_path t dir;
        let* fd =
          with_fsuid t ctx (fun () ->
              Kernel.open_ k p path (Types.O_CREAT :: open_flags_for_server flags) ~mode)
        in
        let* resp = handle_lookup t ctx ~parent ~name in
        (match resp with
        | Protocol.R_entry (ino, st) -> Ok (Protocol.R_create (ino, st, alloc_fh t ~fd ~ino))
        | _ -> Error Errno.EIO)
    | Protocol.Read { fh = n; off; len } ->
        let* h = fh t n in
        let* data = Kernel.pread k p h.sh_fd ~off ~len in
        Metrics.add t.m_read_bytes (String.length data);
        Ok (Protocol.R_data data)
    | Protocol.Write { fh = n; off; data } ->
        let* h = fh t n in
        invalidate_ino t h.sh_ino;
        let* written = with_fsuid t ctx (fun () -> Kernel.pwrite k p h.sh_fd ~off data) in
        Metrics.add t.m_write_bytes written;
        Ok (Protocol.R_written written)
    | Protocol.Flush _ -> Ok Protocol.R_ok
    | Protocol.Release n ->
        pt_drop t n;
        (match Hashtbl.find_opt t.fhs n with
        | Some h ->
            Hashtbl.remove t.fhs n;
            ignore (Kernel.close k p h.sh_fd)
        | None -> ());
        Ok Protocol.R_ok
    | Protocol.Fsync n ->
        let* h = fh t n in
        let* () = Kernel.fsync k p h.sh_fd in
        Ok Protocol.R_ok
    | Protocol.Fallocate { fh = n; off; len } ->
        let* h = fh t n in
        invalidate_ino t h.sh_ino;
        let* () = Kernel.fallocate k p h.sh_fd ~off ~len in
        Ok Protocol.R_ok
    | Protocol.Readdir ino ->
        let* path = path_of t ino in
        let* entries = Kernel.readdir k p path in
        Ok (Protocol.R_dirents entries)
    | Protocol.Readdirplus ino ->
        let* path = path_of t ino in
        let* entries = Kernel.readdir k p path in
        (* Each entry is stat()ed alongside the getdents — a batched
           lookup with amplification 1 instead of the open()+stat() pair a
           per-name LOOKUP would pay.  "." and ".." carry no attr. *)
        let plus =
          List.map
            (fun (de : Types.dirent) ->
              if de.Types.d_name = "." || de.Types.d_name = ".." then
                (de, None, 0, 0)
              else
                let cpath = Pathx.concat path de.Types.d_name in
                match
                  with_fsuid t ctx (fun () -> Kernel.lstat k p cpath)
                with
                | Error _ -> (de, None, 0, 0)
                | Ok st ->
                    Metrics.incr t.m_lookups;
                    Metrics.incr t.m_backing_ops;
                    let cino = intern t ~path:cpath ~st in
                    hc_insert t ~path:cpath ~st ~ino:cino;
                    ( de,
                      Some (xlate_stat st ~ino:cino),
                      t.rdp_entry_valid_ns,
                      t.rdp_attr_valid_ns ))
            entries
        in
        Ok (Protocol.R_direntplus plus)
    | Protocol.Getxattr (ino, name) ->
        let* v =
          on_entry t ino
            ~via_path:(fun path -> Kernel.getxattr k p path name)
            ~via_fd:(fun fd -> Kernel.fgetxattr k p fd name)
        in
        Ok (Protocol.R_xattr v)
    | Protocol.Setxattr (ino, name, value) ->
        invalidate_ino t ino;
        let* () =
          on_entry t ino
            ~via_path:(fun path -> with_fsuid t ctx (fun () -> Kernel.setxattr k p path name value))
            ~via_fd:(fun fd -> with_fsuid t ctx (fun () -> Kernel.fsetxattr k p fd name value))
        in
        Ok Protocol.R_ok
    | Protocol.Listxattr ino ->
        let* names =
          on_entry t ino
            ~via_path:(fun path -> Kernel.listxattr k p path)
            ~via_fd:(fun fd -> Kernel.flistxattr k p fd)
        in
        Ok (Protocol.R_xattr_names names)
    | Protocol.Removexattr (ino, name) ->
        invalidate_ino t ino;
        let* () =
          on_entry t ino
            ~via_path:(fun path -> with_fsuid t ctx (fun () -> Kernel.removexattr k p path name))
            ~via_fd:(fun fd -> with_fsuid t ctx (fun () -> Kernel.fremovexattr k p fd name))
        in
        Ok Protocol.R_ok
    | Protocol.Statfs ->
        let* path = path_of t root_ino in
        let* s = Kernel.statfs k p path in
        Ok (Protocol.R_statfs s)
    | Protocol.Destroy ->
        (* orderly teardown: grants die with their handles, uncounted *)
        Hashtbl.iter (fun _ (slot : pt_slot) -> slot.ps_grant.Protocol.g_valid <- false) t.pts;
        Hashtbl.reset t.pts;
        Hashtbl.iter (fun _ h -> ignore (Kernel.close k p h.sh_fd)) t.fhs;
        Hashtbl.reset t.fhs;
        Ok Protocol.R_ok)

(* View over the registry counter ("cntrfs.lookup.count"). *)
let lookups_performed t = Metrics.value t.m_lookups
