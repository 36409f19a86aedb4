(** Namespace identities.  Mount namespaces carry real state in {!Mount};
    PID namespaces are hierarchical (a parent sees its descendants'
    processes); the others are opaque identity tags whose sharing and
    unsharing is what the simulation tracks. *)

type kind = Mnt | Pid | Net | Uts | Ipc | User | Cgroup

val kind_to_string : kind -> string
val all_kinds : kind list

(** An opaque namespace tag (net, uts, ipc, cgroup). *)
type t = { id : int; kind : kind }

type pid_ns = { pns_id : int; parent : pid_ns option }

(** Is [inner] equal to or a descendant of [outer]?  Its processes are then
    visible from [outer]'s /proc. *)
val pid_ns_visible_from : outer:pid_ns -> pid_ns -> bool

(** uid/gid mapping ranges of a user namespace. *)
type mapping = { inside : int; outside : int; count : int }

type user_ns = {
  uns_id : int;
  mutable uid_map : mapping list;
  mutable gid_map : mapping list;
}

val map_to_ns : mapping list -> int -> int option
val identity_map : mapping list
