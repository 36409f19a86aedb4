(* Host-side measurement: the monotonic clock, allocation counters, and
   the benchmark's own sample vectors and percentiles.  Every percentile
   the benchmark prints is computed here from all of its samples; the
   program's Metrics histograms keep only their first observations, so
   their percentiles are never used. *)

let now_ns () = Monotonic_clock.now ()

let since_ns t0 = Int64.to_int (Int64.sub (now_ns ()) t0)

(* Words allocated so far on the host heap (minor + direct major). *)
let alloc_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

(* Growable int vector. *)
type vec = { mutable a : int array; mutable n : int }

let vec () = { a = Array.make 1024 0; n = 0 }

let push v x =
  if v.n = Array.length v.a then begin
    let b = Array.make (2 * v.n) 0 in
    Array.blit v.a 0 b 0 v.n;
    v.a <- b
  end;
  v.a.(v.n) <- x;
  v.n <- v.n + 1

let to_array v = Array.sub v.a 0 v.n

let append dst src = for i = 0 to src.n - 1 do push dst src.a.(i) done

let sum v =
  let s = ref 0 in
  for i = 0 to v.n - 1 do s := !s + v.a.(i) done;
  !s

(* Nearest-rank percentile over a sorted array. *)
let rank sorted p =
  let n = Array.length sorted in
  if n = 0 then 0
  else
    let k = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
    sorted.(max 0 (min (n - 1) (k - 1)))

let percentiles v ps =
  let s = to_array v in
  Array.sort compare s;
  List.map (rank s) ps

let median_float l =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* One workload round's per-operation samples: host and virtual
   nanoseconds per operation, in completion order. *)
type samples = { host : vec; virt : vec; mutable failed : int }

let samples () = { host = vec (); virt = vec (); failed = 0 }

let record s ~host ~virt =
  push s.host host;
  push s.virt virt

let fail s = s.failed <- s.failed + 1

(* A fixed host-only kernel (hashing, allocation, string copies; no code
   of the program under test), timed three times; the fastest of the three
   tracks how fast the host runs right now. *)
let reference_ns () =
  let kernel () =
    let h = Hashtbl.create 4096 and acc = ref 0 in
    for i = 0 to 40_000 do
      let k = (i * 7919) land 0xfff in
      Hashtbl.replace h k (String.make (16 + (i land 63)) 'r');
      acc := !acc + String.length (Hashtbl.find h k)
    done;
    ignore (Sys.opaque_identity !acc)
  in
  let once () =
    let t0 = now_ns () in
    kernel ();
    since_ns t0
  in
  min (once ()) (min (once ()) (once ()))
