(* Namespace identities.  Mount namespaces carry real state and live in
   [Mount]; PID namespaces are hierarchical (a parent namespace sees its
   descendants' processes); the others are opaque identity tags whose
   sharing/unsharing is what matters to the simulation. *)

type kind = Mnt | Pid | Net | Uts | Ipc | User | Cgroup

let kind_to_string = function
  | Mnt -> "mnt"
  | Pid -> "pid"
  | Net -> "net"
  | Uts -> "uts"
  | Ipc -> "ipc"
  | User -> "user"
  | Cgroup -> "cgroup"

let all_kinds = [ Mnt; Pid; Net; Uts; Ipc; User; Cgroup ]

(* An opaque namespace tag (net, uts, ipc, cgroup). *)
type t = { id : int; kind : kind }

type pid_ns = { pns_id : int; parent : pid_ns option }

(* Is [inner] equal to or a descendant of [outer]?  Processes in [inner]
   are visible from [outer]'s /proc. *)
let rec pid_ns_visible_from ~outer inner =
  inner.pns_id = outer.pns_id
  ||
  match inner.parent with
  | Some p -> pid_ns_visible_from ~outer p
  | None -> false

(* uid/gid mapping of a user namespace: (inside, outside, count) ranges. *)
type mapping = { inside : int; outside : int; count : int }

type user_ns = {
  uns_id : int;
  mutable uid_map : mapping list;
  mutable gid_map : mapping list;
}

let map_to_ns map host_id =
  List.find_map
    (fun m ->
      if host_id >= m.outside && host_id < m.outside + m.count then
        Some (m.inside + (host_id - m.outside))
      else None)
    map

let identity_map = [ { inside = 0; outside = 0; count = 1 lsl 32 } ]
