(* The benchmark's workloads. Everything a run feeds the measured
   program -- the NF program, packet traces, control-plane operations and
   the held-out correctness packets -- is derived here from the seed,
   before any timing starts. Why each workload exists is recorded in
   perfbench/README.md. *)

module F = P4ir.Field
module T = P4ir.Table

type op = Insert of string * T.entry | Delete of string * T.entry
type size = Full | Smoke

type t = {
  target : Costmodel.Target.t;
  program : unit -> P4ir.Program.t;
      (** builds the NF afresh; called inside every timed set-up *)
  spec : Fleet.spec;  (** [telemetry] is overridden per episode *)
  rounds : int;  (** rounds per episode *)
  packets : int;  (** sampled packets per window *)
  duration : float;  (** emulated seconds per window *)
  tick_every : int;  (** a fleet tick closes every this many rounds *)
  traces : Traffic.Trace.t array;
  trace_of : round:int -> member:int -> int;  (** index into [traces] *)
  updates : op list array array;  (** [updates.(round).(member)] *)
  probe_table : string;  (** the table the updates write, mirrored by the engine probe *)
  probe_flow : Traffic.Workload.flow;
  heldout : Traffic.Workload.flow array array;  (** per member *)
  setups : int;
      (** fresh set-ups timed before the episodes, besides one per episode:
          a set-up is short next to an episode, and these give the set-up
          median enough samples *)
}

let names = [ "steady-lb"; "drift-dash"; "churn-routes" ]
let nics = 4

let rng_of ~seed k = Stdx.Prng.fork (Stdx.Prng.create (Int64.of_int seed)) k
let rand_bits rng bits = Int64.of_int (Stdx.Prng.int rng (1 lsl bits))

(* A sample of [n] distinct ints from [lo, hi), in draw order. *)
let distinct rng ~n ~lo ~hi =
  let seen = Hashtbl.create n in
  let rec draw () =
    let v = lo + Stdx.Prng.int rng (hi - lo) in
    if Hashtbl.mem seen v then draw ()
    else begin
      Hashtbl.add seen v ();
      v
    end
  in
  Array.init n (fun _ -> draw ())

(* What the single-key tables of [program] keyed on [field] return for
   [v]. *)
let outcome program field v =
  List.filter_map
    (fun (_, (t : T.t)) ->
      match t.keys with
      | [ k ] when F.equal k.field field -> Some (T.lookup t (fun _ -> v))
      | _ -> None)
    (P4ir.Program.tables program)

(* Draw until the value meets, in every table keyed on [field] alone,
   the entry (or miss) that the all-ones value meets. Flows are built
   from such values plus hits chosen by flow rank, so which tables a flow
   of a given popularity hits is the same for every seed: the seed moves
   packet values, not the shape of the profile. *)
let typical program field draw =
  let want = outcome program field (F.max_value field) in
  let rec go () =
    let v = draw () in
    if outcome program field v = want then v else go ()
  in
  go ()

(* Held-out packets: half drawn like the measured traffic, half fresh
   random flows, none of them replayed while timing. *)
let heldout_of rng ~n ~fields source =
  let measured = Traffic.Trace.record ~fields ~n:(n / 2) source in
  Array.init n (fun i ->
      if i < n / 2 then
        let pkt = Traffic.Trace.nth measured i in
        List.map (fun f -> (f, Nicsim.Packet.get pkt f)) fields
      else List.map (fun f -> (f, rand_bits rng (min 32 (F.width f)))) fields)

let base_spec ~seed ~controller ~common_traffic =
  { Fleet.default_spec with
    Fleet.nics;
    seed;
    controller;
    share_cache = true;
    gossip = true;
    telemetry = false;
    common_traffic;
    (* Fleet.create's own flow sources are never pulled: every window
       replays a recorded trace instead. *)
    flows_per_nic = 1 }

(* ---- steady-lb: the 10-table load balancer of examples/load_balancer.ml ---- *)

let lb_fields = [ F.Ipv4_src; F.Ipv4_dst; F.Tcp_sport; F.Tcp_dport ]
let vip i = Int64.of_int (0x0A000100 + i)

(* The program of examples/load_balancer.ml, entry for entry. *)
let load_balancer () =
  let vip_table =
    T.make ~name:"vip_match"
      ~keys:[ P4ir.Builder.exact_key F.Ipv4_dst ]
      ~actions:
        [ P4ir.Action.make "to_backend" [ P4ir.Action.Set_from (F.Meta 0, F.Tcp_sport) ];
          P4ir.Action.nop "not_vip" ]
      ~default_action:"not_vip"
      ~entries:(List.init 8 (fun i -> T.entry [ P4ir.Pattern.Exact (vip i) ] "to_backend"))
      ()
  in
  let backend =
    T.make ~name:"backend_select"
      ~keys:[ P4ir.Builder.exact_key (F.Meta 0) ]
      ~actions:[ P4ir.Builder.forward_action "pick"; P4ir.Action.nop "none" ]
      ~default_action:"none" ()
  in
  let conntrack =
    T.make ~name:"conntrack"
      ~keys:[ P4ir.Builder.exact_key F.Tcp_sport ]
      ~actions:[ P4ir.Action.nop "known"; P4ir.Action.nop "new_flow" ]
      ~default_action:"new_flow" ()
  in
  let acl =
    T.add_entry
      (P4ir.Builder.acl_table ~name:"edge_acl" ~keys:[ P4ir.Builder.ternary_key F.Udp_dport ] ())
      (T.entry ~priority:1 [ P4ir.Pattern.Ternary (0xDEADL, 0xFFFFL) ] "deny")
  in
  let procs =
    List.init 6 (fun i ->
        T.make
          ~name:(Printf.sprintf "fw_stage%d" i)
          ~keys:[ P4ir.Builder.ternary_key (List.nth lb_fields (i mod 4)) ]
          ~actions:[ P4ir.Builder.forward_action "ok"; P4ir.Action.nop "def" ]
          ~default_action:"def"
          ~entries:
            (List.init 8 (fun j ->
                 let mask = [| 0xFFL; 0xFF00L; 0xFFFFL; 0xFF0000L |].(j mod 4) in
                 T.entry ~priority:j [ P4ir.Pattern.Ternary (Int64.of_int (j * 11), mask) ] "ok"))
          ())
  in
  P4ir.Program.linear "load_balancer" (procs @ [ conntrack; vip_table; backend; acl ])

(* Source ports below [lb_new_flow_base] carry traffic; the conntrack
   trickle inserts ports above it -- connections being set up whose
   packets are not in these windows -- so the data-path mix stays steady
   and ticks mostly hold. *)
let lb_new_flow_base = 40_000

let steady_lb ~size ~seed =
  let packets, rounds, nflows =
    match size with Full -> (8192, 12, 512) | Smoke -> (256, 6, 64)
  in
  let inserts_per_round = 4 in
  let member m =
    let rng = rng_of ~seed (10 + m) in
    let prog = load_balancer () in
    let typ field draw = typical prog field draw in
    (* Three flows in four, by rank, go to a VIP. *)
    let flows =
      Array.init nflows (fun i ->
          [ (F.Ipv4_src, typ F.Ipv4_src (fun () -> rand_bits rng 32));
            (F.Ipv4_dst, if i mod 4 <> 3 then vip (i mod 8) else typ F.Ipv4_dst (fun () -> rand_bits rng 32));
            ( F.Tcp_sport,
              typ F.Tcp_sport (fun () -> Int64.of_int (1024 + Stdx.Prng.int rng (lb_new_flow_base - 1024))) );
            (F.Tcp_dport, typ F.Tcp_dport (fun () -> rand_bits rng 16)) ])
    in
    let source = Traffic.Workload.of_flows ~zipf_s:1.1 rng flows in
    let trace = Traffic.Trace.record ~fields:lb_fields ~n:(4 * packets) source in
    let heldout = heldout_of rng ~n:(match size with Full -> 256 | Smoke -> 32) ~fields:lb_fields source in
    let ports =
      distinct rng ~n:(rounds * inserts_per_round) ~lo:lb_new_flow_base ~hi:(1 lsl 16)
    in
    let updates =
      Array.init rounds (fun r ->
          List.init inserts_per_round (fun k ->
              Insert
                ( "conntrack",
                  T.entry [ P4ir.Pattern.Exact (Int64.of_int ports.((r * inserts_per_round) + k)) ] "known" )))
    in
    (trace, heldout, updates, flows.(0))
  in
  let members = Array.init nics member in
  { target = Costmodel.Target.bluefield2;
    program = load_balancer;
    spec = base_spec ~seed ~controller:Runtime.Controller.default_config ~common_traffic:false;
    rounds;
    packets;
    duration = 1.0;
    tick_every = 1;
    traces = Array.map (fun (tr, _, _, _) -> tr) members;
    trace_of = (fun ~round:_ ~member -> member);
    updates = Array.init rounds (fun r -> Array.map (fun (_, _, u, _) -> u.(r)) members);
    probe_table = "conntrack";
    probe_flow = (let _, _, _, f = members.(0) in f);
    heldout = Array.map (fun (_, h, _, _) -> h) members;
    setups = (match size with Full -> 64 | Smoke -> 2) }

(* ---- the DASH gateway of examples/dash_routing.ml ---- *)

let deny = 0xBADL
let dash_fields = [ F.Ipv4_src; F.Ipv4_dst; F.Tcp_sport ]

(* The twelve routes of examples/dash_routing.ml. *)
let base_routes =
  List.init 12 (fun j ->
      let len = [| 8; 16; 24 |].(j mod 3) in
      (Int64.shift_left (Int64.of_int (j + 1)) (32 - len), len))

let route (v, len) = T.entry [ P4ir.Pattern.Lpm (v, len) ] "route"

(* The program of examples/dash_routing.ml; [extra_routes] are appended
   to its LPM route table. *)
let dash ?(extra_routes = []) () =
  let exact name field entries =
    T.make ~name
      ~keys:[ P4ir.Builder.exact_key field ]
      ~actions:[ P4ir.Builder.forward_action "set"; P4ir.Action.nop "skip" ]
      ~default_action:"skip"
      ~entries:(List.init entries (fun j -> T.entry [ P4ir.Pattern.Exact (Int64.of_int j) ] "set"))
      ()
  in
  let acl level field =
    let base =
      P4ir.Builder.acl_table ~name:(Printf.sprintf "acl_level%d" level)
        ~keys:[ P4ir.Builder.ternary_key field ] ()
    in
    List.fold_left
      (fun tab mask ->
        T.add_entry tab
          (T.entry ~priority:1 [ P4ir.Pattern.Ternary (Int64.logand deny mask, mask) ] "deny"))
      base [ 0xFFFL; 0xFFEL; 0xFFCL ]
  in
  let routes = base_routes @ extra_routes in
  let routing =
    T.make ~name:"outbound_routing"
      ~max_entries:(max 1024 (2 * List.length routes))
      ~keys:[ P4ir.Builder.lpm_key F.Ipv4_dst ]
      ~actions:[ P4ir.Builder.forward_action "route"; P4ir.Action.drop_action ]
      ~default_action:"drop" ~entries:(List.map route routes) ()
  in
  P4ir.Program.linear "dash"
    [ exact "direction_lookup" F.Ingress_port 2;
      exact "eni_lookup" F.Eth_dst 4;
      exact "vni_mapping" F.Ipv4_dscp 4;
      exact "conntrack" F.Tcp_sport 64;
      acl 1 F.Ipv4_src;
      acl 2 F.Ipv4_dst;
      acl 3 F.Tcp_sport;
      routing ]

(* A destination inside the route, hitting no ACL keyed on it. *)
let in_route rng prog (v, len) =
  let host_mask = Int64.logand (Int64.lognot (P4ir.Value.prefix_mask ~width:32 ~prefix_len:len)) 0xFFFFFFFFL in
  let rec draw () =
    let dst = Int64.logor v (Int64.logand (rand_bits rng 32) host_mask) in
    if List.exists
         (fun (_, (t : T.t)) ->
           t.name <> "outbound_routing"
           && (match t.keys with [ k ] -> F.equal k.field F.Ipv4_dst | _ -> false)
           && T.lookup t (fun _ -> dst) <> None)
         (P4ir.Program.tables prog)
    then draw ()
    else dst
  in
  draw ()

let dash_controller =
  { Runtime.Controller.default_config with
    Runtime.Controller.deploy_mode = Runtime.Controller.Incremental;
    (* Agilio reloads micro-engines on reconfiguration (paper §5.1). *)
    reconfig_downtime = 1.0 }

(* Conntrack trickle shared by both DASH workloads: each round adds two
   established flows and retires the two added two rounds earlier. *)
let conntrack_trickle r =
  let entry k = T.entry [ P4ir.Pattern.Exact (Int64.of_int (1000 + k)) ] "set" in
  let adds = [ Insert ("conntrack", entry (2 * r)); Insert ("conntrack", entry ((2 * r) + 1)) ] in
  if r < 2 then adds
  else
    adds @ [ Delete ("conntrack", entry (2 * (r - 2))); Delete ("conntrack", entry ((2 * (r - 2)) + 1)) ]

let drift_dash ~size ~seed =
  let packets, rounds, nflows =
    match size with Full -> (512, 24, 64) | Smoke -> (128, 8, 64)
  in
  let flip = 4 in
  let rng = rng_of ~seed 20 in
  let prog = dash () in
  let typ field draw = typical prog field draw in
  (* By rank: even flows ride an established connection (conntrack
     ports 0..63) to a routed destination, odd flows are new and
     unrouted. Which of the two is popular flips with the phase. *)
  let flows =
    Array.init nflows (fun i ->
        let sport, dst =
          if i mod 2 = 0 then
            let v, len = List.nth base_routes (i / 2 mod List.length base_routes) in
            (Int64.of_int (i / 2 mod 64), in_route rng prog (v, len))
          else
            ( typ F.Tcp_sport (fun () -> Int64.of_int (4096 + Stdx.Prng.int rng 60_000)),
              typ F.Ipv4_dst (fun () -> rand_bits rng 32) )
        in
        [ (F.Ipv4_src, typ F.Ipv4_src (fun () -> rand_bits rng 32)); (F.Ipv4_dst, dst); (F.Tcp_sport, sport) ])
  in
  let reversed = Array.init nflows (fun i -> flows.(nflows - 1 - i)) in
  let phase flows rate =
    Traffic.Workload.mark_fraction rng ~rate ~field:F.Tcp_sport ~value:deny
      (Traffic.Workload.of_flows ~zipf_s:1.2 rng flows)
  in
  let phase_a = phase flows 0.1 and phase_b = phase reversed 0.6 in
  let traces =
    [| Traffic.Trace.record ~fields:dash_fields ~n:(4 * packets) phase_a;
       Traffic.Trace.record ~fields:dash_fields ~n:(4 * packets) phase_b |]
  in
  let heldout = heldout_of rng ~n:(match size with Full -> 256 | Smoke -> 32) ~fields:dash_fields phase_b in
  { target = Costmodel.Target.agilio_cx;
    program = (fun () -> dash ());
    spec = base_spec ~seed ~controller:dash_controller ~common_traffic:true;
    rounds;
    packets;
    duration = 1.0;
    tick_every = 1;
    traces;
    trace_of = (fun ~round ~member:_ -> round / flip mod 2);
    updates = Array.init rounds (fun r -> Array.make nics (conntrack_trickle r));
    probe_table = "conntrack";
    probe_flow = flows.(0);
    heldout = Array.make nics heldout;
    setups = (match size with Full -> 64 | Smoke -> 2) }

let churn_routes ~size ~seed =
  let packets, rounds, nroutes, nflows =
    match size with Full -> (1024, 12, 20_000, 64) | Smoke -> (128, 8, 4_200, 64)
  in
  (* Six inserts to one delete. A delete costs several inserts, and its
     time moves most with load from neighbouring processes; at one
     update in seven, the 90th percentile of update times falls in the
     faster third of the deletes. *)
  let inserts, deletes = (6, 1) in
  let rng = rng_of ~seed 30 in
  (* Unique (prefix, length) routes: the initial table, then the pool
     the churn inserts from. *)
  let seen = Hashtbl.create (2 * nroutes) in
  List.iter (fun r -> Hashtbl.replace seen r ()) base_routes;
  let rec fresh () =
    let len = 16 + Stdx.Prng.int rng 13 in
    let v = Int64.logand (rand_bits rng 32) (P4ir.Value.prefix_mask ~width:32 ~prefix_len:len) in
    if Hashtbl.mem seen (v, len) then fresh ()
    else begin
      Hashtbl.replace seen (v, len) ();
      (v, len)
    end
  in
  let initial = Array.init nroutes (fun _ -> fresh ()) in
  let pool = Array.init (rounds * inserts) (fun _ -> fresh ()) in
  (* Traffic targets the first quarter of the initial routes ("hot");
     deletes only retire cold routes, so every flow keeps its route. *)
  let hot = nroutes / 4 in
  let prog = dash () in
  let typ field draw = typical prog field draw in
  let flows =
    Array.init nflows (fun _ ->
        [ (F.Ipv4_src, typ F.Ipv4_src (fun () -> rand_bits rng 32));
          (F.Ipv4_dst, in_route rng prog initial.(Stdx.Prng.int rng hot));
          (F.Tcp_sport, typ F.Tcp_sport (fun () -> Int64.of_int (4096 + Stdx.Prng.int rng 60_000))) ])
  in
  let source =
    Traffic.Workload.mark_fraction rng ~rate:0.2 ~field:F.Tcp_sport ~value:deny
      (Traffic.Workload.of_flows ~zipf_s:1.1 rng flows)
  in
  let trace = Traffic.Trace.record ~fields:dash_fields ~n:(4 * packets) source in
  let heldout = heldout_of rng ~n:(match size with Full -> 128 | Smoke -> 32) ~fields:dash_fields source in
  let updates =
    Array.init rounds (fun r ->
        let ops =
          List.init inserts (fun k -> Insert ("outbound_routing", route pool.((r * inserts) + k)))
          @ List.init deletes (fun k -> Delete ("outbound_routing", route initial.(hot + (r * deletes) + k)))
        in
        Array.make nics ops)
  in
  { target = Costmodel.Target.agilio_cx;
    program = (fun () -> dash ~extra_routes:(Array.to_list initial) ());
    spec = base_spec ~seed ~controller:dash_controller ~common_traffic:true;
    rounds;
    packets;
    duration = 0.25;
    tick_every = 2;
    traces = [| trace |];
    trace_of = (fun ~round:_ ~member:_ -> 0);
    updates;
    probe_table = "outbound_routing";
    probe_flow = flows.(0);
    heldout = Array.make nics heldout;
    setups = (match size with Full -> 16 | Smoke -> 2) }

let make ~size ~seed = function
  | "steady-lb" -> steady_lb ~size ~seed
  | "drift-dash" -> drift_dash ~size ~seed
  | "churn-routes" -> churn_routes ~size ~seed
  | name -> invalid_arg ("unknown workload " ^ name)
