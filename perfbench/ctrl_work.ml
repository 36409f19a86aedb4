(* ctrl-churn: cntrd session lifecycles (create -> exec -> exec -> stat ->
   detach) over a Testbed world, across containers, engines and tenants.
   Most lifecycles run over two in-process clients; 8 blocks of 16 go over
   one of two wire connections as 16-call pipelined batch envelopes, one
   envelope per step.  One operation is one RPC.  With two execs the host
   p50 falls inside the exec mode instead of on the edge between the stat
   and exec modes, where noise would flip it from one to the other. *)

open Repro_util
open Repro_ctrl
module World = Repro_runtime.World

let images =
  [| "nginx:latest"; "redis:latest"; "postgres:latest"; "memcached:latest";
     "mysql:latest"; "mongo:latest"; "haproxy:latest"; "grafana:latest" |]

let engines = [| "docker"; "lxc"; "rkt"; "systemd-nspawn" |]
let tenants = [| "alice"; "bob"; "carol"; "dave" |]
let cmds = [| "hostname"; "ps"; "ls /var/lib/cntr"; "cat /var/lib/cntr/etc/passwd" |]
let batch = 16
let in_process_lives = 480
let wire_blocks = 8

type life = { container : string; tenant : string; cmds : string * string }
type step = In of life | Wire of life array

type plan = { placement : (string * string * string) array; steps : step list }

let plan seed =
  let rng = Rng.create ~seed in
  let placement =
    Array.mapi
      (fun i image -> (Printf.sprintf "c%02d" i, image, Rng.choose rng engines))
      images
  in
  (* zipf-ish container popularity: weight 1/rank *)
  let weights = Array.init (Array.length images) (fun k -> 840 / (k + 1)) in
  let total = Array.fold_left ( + ) 0 weights in
  let life () =
    let r = ref (Rng.int rng total) and i = ref 0 in
    while !r >= weights.(!i) do
      r := !r - weights.(!i);
      incr i
    done;
    {
      container = Printf.sprintf "c%02d" !i;
      tenant = Rng.choose rng tenants;
      cmds = (Rng.choose rng cmds, Rng.choose rng cmds);
    }
  in
  let steps =
    Array.append
      (Array.init in_process_lives (fun _ -> In (life ())))
      (Array.init wire_blocks (fun _ -> Wire (Array.init batch (fun _ -> life ()))))
  in
  Rng.shuffle rng steps;
  { placement; steps = Array.to_list steps }

let inputs p =
  let life l = Printf.sprintf "%s/%s/%s/%s" l.container l.tenant (fst l.cmds) (snd l.cmds) in
  Work.digest_strings
    (Array.to_list (Array.map (fun (n, i, e) -> Printf.sprintf "%s %s %s" n i e) p.placement)
    @ List.map
        (function
          | In l -> "in " ^ life l
          | Wire ls -> "wire " ^ String.concat " " (Array.to_list (Array.map life ls)))
        p.steps)

let config =
  {
    Daemon.default_config with
    Daemon.c_max_active = 64;
    c_queue_depth = 32;
    c_tenant = { Daemon.q_active = 32; q_queued = 16 };
  }

let round ~seed ~index:_ ~twin:_ ~tracer =
  let wrap ?op ~layer ~name clock f = Spans.wrap tracer ?op ~layer ~name clock f in
  let (p, world, daemon, locals, wires), setup_ns, _ =
    Work.timed (fun () ->
        let p = plan seed in
        let clock0 = Clock.create () in
        let world =
          wrap ~op:0 ~layer:"runtime" ~name:"runtime.world_create" clock0 (fun () ->
              Repro_cntr.Testbed.create ())
        in
        let clock = world.World.clock in
        Array.iter
          (fun (name, image_ref, engine) ->
            ignore
              (Errno.ok_exn
                 (wrap ~op:0 ~layer:"runtime" ~name:"runtime.run_container" clock (fun () ->
                      World.run_container world ~engine:(World.engine world engine) ~name
                        ~image_ref ()))))
          p.placement;
        let daemon = Daemon.create ~config world in
        let w = Errno.ok_exn (Daemon.wire_serve daemon ~path:"/run/cntrd.sock" ()) in
        ( p,
          world,
          daemon,
          [| Client.in_process daemon; Client.in_process daemon |],
          [| Client.connect w; Client.connect w |] ))
  in
  let clock = world.World.clock in
  let s = Measure.samples () in
  let submitted = ref 0 and replies = ref 0 and id = ref 0 in
  let in_virt = ref 0 and in_lives = ref 0 in
  let wire_virt = ref 0 and wire_lives = ref 0 in
  let reply = function
    | Ok v ->
        incr replies;
        Some v
    | Error (_ : Rpc.rerror) ->
        incr replies;
        None
  in
  (* one in-process RPC *)
  let call cl verb f =
    incr submitted;
    incr id;
    let v0 = Clock.now_ns clock in
    let r = Work.op s clock (fun () -> wrap ~op:!id ~layer:"ctrl" ~name:("ctrl." ^ verb) clock (fun () -> f cl)) in
    in_virt := !in_virt + Int64.to_int (Int64.sub (Clock.now_ns clock) v0);
    reply r
  in
  (* one envelope of [batch] calls over a wire connection; each call's
     samples are the envelope's round trip divided by its calls *)
  let envelope w verb start =
    incr id;
    let n = Array.length start in
    submitted := !submitted + n;
    let v0 = Clock.now_ns clock and h0 = Measure.now_ns () in
    let results =
      wrap ~op:!id ~layer:"proxy" ~name:("proxy." ^ verb) clock (fun () ->
          let calls = Client.batch w (fun () -> Array.map (fun f -> f w) start) in
          Array.map (fun c -> Client.finish w c) calls)
    in
    let h = Measure.since_ns h0 and v = Int64.to_int (Int64.sub (Clock.now_ns clock) v0) in
    wire_virt := !wire_virt + v;
    Array.map
      (fun r ->
        Measure.record s ~host:(h / n) ~virt:(v / n);
        if Result.is_error r then Measure.fail s;
        reply r)
      results
  in
  let exec_ok = function
    | Some x when x.Client.sx_code = 0 -> ()
    | Some _ -> Measure.fail s
    | None -> ()
  in
  let (), timed_ns, alloc_words =
    Work.timed (fun () ->
        List.iteri
          (fun i step ->
            match step with
            | In l -> (
                let cl = locals.(i mod 2) in
                incr in_lives;
                match call cl "create" (fun cl -> Client.session_create cl ~tenant:l.tenant l.container) with
                | None -> ()
                | Some c ->
                    let session = c.Client.sc_session in
                    exec_ok (call cl "exec" (fun cl -> Client.session_exec cl ~session (fst l.cmds)));
                    exec_ok (call cl "exec" (fun cl -> Client.session_exec cl ~session (snd l.cmds)));
                    ignore (call cl "stat" (fun cl -> Client.session_stat cl ~session));
                    ignore (call cl "detach" (fun cl -> Client.session_detach cl ~session)))
            | Wire ls ->
                let w = wires.(i mod 2) in
                wire_lives := !wire_lives + Array.length ls;
                let created =
                  envelope w "create"
                    (Array.map (fun l w -> Client.start_create w ~tenant:l.tenant l.container) ls)
                in
                let live =
                  Array.to_list created
                  |> List.mapi (fun j c -> (j, c))
                  |> List.filter_map (fun (j, c) ->
                         Option.map (fun c -> (ls.(j), c.Client.sc_session)) c)
                  |> Array.of_list
                in
                let on_live f = Array.map (fun (l, session) w -> f w l session) live in
                List.iter
                  (fun cmd ->
                    Array.iter exec_ok
                      (envelope w "exec" (on_live (fun w l session -> Client.start_exec w ~session (cmd l.cmds)))))
                  [ fst; snd ];
                ignore (envelope w "stat" (on_live (fun w _ session -> Client.start_stat w ~session)));
                ignore
                  (envelope w "detach" (on_live (fun w _ session -> Client.start_detach w ~session))))
          p.steps;
        Daemon.pump daemon)
  in
  let m = Repro_obs.Obs.metrics (Daemon.obs daemon) in
  let c n = Repro_obs.Metrics.counter_value m n in
  let g n = Repro_obs.Metrics.gauge_value m n in
  if !replies <> !submitted then Work.wrong "%d replies for %d submitted RPCs" !replies !submitted;
  if c "ctrl.rpc.calls" <> !submitted then
    Work.wrong "daemon counted %d RPCs, %d were submitted" (c "ctrl.rpc.calls") !submitted;
  if g "ctrl.sessions.active" <> 0. then
    Work.wrong "ctrl.sessions.active is %g after the drain" (g "ctrl.sessions.active");
  let sessions = float_of_int (max 1 (c "ctrl.sessions.total")) in
  let per_session n = float_of_int (c n) /. sessions in
  let h n =
    match Repro_obs.Metrics.histogram_summary m n with
    | Some s -> s.Repro_obs.Metrics.s_mean
    | None -> 0.
  in
  let per_life total lives = float_of_int total /. float_of_int (max 1 lives) in
  {
    Work.setup_ns;
    timed_ns;
    samples = s;
    virt_ns = !in_virt + !wire_virt;
    alloc_words;
    inputs = inputs p;
    outputs = Printf.sprintf "%d/%d/%d" !submitted !replies (c "ctrl.sessions.total");
    fingerprint = Work.digest_strings [ Work.digest_vec s.Measure.virt; Work.registry_digest m ];
    counters =
      Work.stack_counters m
      @ [
          ("ctrl.queue.wait_us.mean", h "ctrl.queue.wait_us");
          ("ctrl.rpc.calls", float_of_int (c "ctrl.rpc.calls"));
          ("ctrl.sessions.rejected", float_of_int (c "ctrl.sessions.rejected"));
          ("ctrl.wire.batches", float_of_int (c "ctrl.wire.batches"));
          ("ctrl.wire.pipelined.max", g "ctrl.wire.pipelined.max");
          ("ctrl.wire.stalls", float_of_int (c "ctrl.wire.stalls"));
          ("os.ns.setns", per_session "os.ns.setns");
          ("os.ns.unshare", per_session "os.ns.unshare");
          ("os.proc.forks", per_session "os.proc.forks");
          ("proxy.fwd.rpc.bytes.c2b", float_of_int (c "proxy.fwd.rpc.bytes.c2b"));
          ("proxy.fwd.rpc.bytes.b2c", float_of_int (c "proxy.fwd.rpc.bytes.b2c"));
        ];
    overhead = Some (per_life !wire_virt !wire_lives /. per_life !in_virt !in_lives);
  }

let workload = { Work.name = "ctrl-churn"; distinct = false; round }
