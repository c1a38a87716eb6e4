(* The closed loop over a fleet. One thread on one domain: each round
   applies its control-plane updates, runs one window per member
   through [Nicsim.Sim.run_window] (the entry point
   [Fleet.run_window_all] uses), then -- every [tick_every] rounds --
   one [Fleet.tick_all ~domains:1]; the next round starts only when this
   one is done. Every call into a layer is timed from outside with a
   monotonic clock.

   A run repeats a fixed episode -- fresh set-up plus the workload's
   round schedule -- until its time is spent. Episodes of one seed are
   identical by construction, so the deterministic figures (decisions,
   modeled latency, allocation) are per-episode values that every
   episode must reproduce, while timings pool samples across episodes
   and report percentiles. *)

module C = Runtime.Controller
module W = Workloads

let now () = Monotonic_clock.now ()
let seconds_between t0 t1 = Int64.to_float (Int64.sub t1 t0) *. 1e-9

module Samples = struct
  type t = { mutable xs : float list; mutable n : int }

  let create () = { xs = []; n = 0 }

  let add s x =
    s.xs <- x :: s.xs;
    s.n <- s.n + 1

  let count s = s.n

  (* Percentile [p] of the samples, linear-interpolated; 0 when there are
     none. *)
  let pct s p = if s.n = 0 then 0. else Stdx.Stats.percentile p s.xs

  let median s = pct s 50.
end

(* A host-speed gauge: a fixed piece of work -- a pointer chase over a
   512 KiB ring and one generic [Hashtbl.find] per step -- that uses only
   the standard library, allocates nothing and so never moves when the
   program under test changes. On a shared host, neighbours slow the
   program and the gauge alike (README.md, "Timing basis"): the gauge is
   read at the start of every round and before every set-up, and each
   host time is scaled by [reference /. latest gauge time], so timings
   read as they would at the speed at which the gauge takes
   [reference] seconds. *)
module Gauge = struct
  let size = 1 lsl 16
  let steps = 12_000

  (* The speed timings are scaled to: they read as if the gauge took
     0.5 ms. On the 2-vCPU VM the bounds were set on it took 0.4-0.7 ms. *)
  let reference = 0.5e-3

  let ring =
    let rng = Random.State.make [| 12 |] in
    let order = Array.init size Fun.id in
    for i = size - 1 downto 1 do
      let j = Random.State.int rng (i + 1) in
      let t = order.(i) in
      order.(i) <- order.(j);
      order.(j) <- t
    done;
    let next = Array.make size 0 in
    Array.iteri (fun i v -> next.(v) <- order.((i + 1) mod size)) order;
    next

  let table =
    let h = Hashtbl.create 4096 in
    for k = 0 to 4095 do
      Hashtbl.replace h k (k * 31)
    done;
    h

  let work () =
    let p = ref 0 and acc = ref 0 in
    for _ = 1 to steps do
      p := ring.(!p);
      acc := !acc + Hashtbl.find table (!p land 4095)
    done;
    !acc

  (* The first pass only brings the ring back into cache after the
     program's own work evicted it; the second is timed. *)
  let time () =
    ignore (Sys.opaque_identity (work ()));
    let t0 = now () in
    ignore (Sys.opaque_identity (work ()));
    seconds_between t0 (now ())
end

(* Spans of the traced episodes, kept in memory and written out once the
   run ends with [Telemetry.Trace.write_file]. Each span carries its own
   id and its parent's (0: none) in [args]. *)
module Spans = struct
  type t = { trace : Telemetry.Trace.t; base : int64; mutable next : int }

  let create ~capacity = { trace = Telemetry.Trace.create ~capacity (); base = now (); next = 1 }

  let fresh_id sp =
    let id = sp.next in
    sp.next <- id + 1;
    id

  let add sp ?id ~parent name t0 t1 =
    let id = match id with Some id -> id | None -> fresh_id sp in
    let us t = seconds_between sp.base t *. 1e6 in
    Telemetry.Trace.add sp.trace
      { Telemetry.Trace.name;
        cat = "perfbench";
        ts = us t0;
        dur = us t1 -. us t0;
        tid = 1;
        args = [ ("id", string_of_int id); ("parent", string_of_int parent) ] }

  (* Per span name: total duration and self time (duration minus the
     part its children cover), in seconds. *)
  let self_times sp =
    let spans = Telemetry.Trace.spans sp.trace in
    let arg (s : Telemetry.Trace.span) k = int_of_string (List.assoc k s.args) in
    let child = Hashtbl.create 64 in
    List.iter
      (fun s ->
        let p = arg s "parent" in
        if p > 0 then
          Hashtbl.replace child p (Option.value ~default:0. (Hashtbl.find_opt child p) +. s.dur))
      spans;
    let acc = Hashtbl.create 16 in
    List.iter
      (fun (s : Telemetry.Trace.span) ->
        let self = s.dur -. Option.value ~default:0. (Hashtbl.find_opt child (arg s "id")) in
        let tot, slf = Option.value ~default:(0., 0.) (Hashtbl.find_opt acc s.name) in
        Hashtbl.replace acc s.name (tot +. s.dur, slf +. self))
      spans;
    List.sort compare (Hashtbl.fold (fun k (t, s) l -> (k, t *. 1e-6, s *. 1e-6) :: l) acc [])
end

(* Timing samples pooled over the episodes of one kind (traced or not). *)
type acc = {
  windows : Samples.t;  (** host seconds per member window *)
  by_trace : Samples.t array;  (** the same, split by the trace the window replayed *)
  ticks : Samples.t;  (** host seconds per [Fleet.tick_all] *)
  hold_ticks : Samples.t;
  redeploy_ticks : Samples.t;  (** rounds where some member installed a layout *)
  searches : Samples.t;  (** per tick, [search_seconds] summed over members *)
  rests : Samples.t;  (** per tick, tick time minus the summed search time *)
  updates : Samples.t;  (** host seconds per [Controller.insert]/[delete] *)
  setups : Samples.t;
  rebuilds : Samples.t;  (** first mirror-engine lookup after an update batch *)
  lookups : Samples.t;  (** mean of the repeated lookups that follow it *)
}

let acc ~traces =
  { windows = Samples.create ();
    by_trace = Array.init traces (fun _ -> Samples.create ());
    ticks = Samples.create ();
    hold_ticks = Samples.create ();
    redeploy_ticks = Samples.create ();
    searches = Samples.create ();
    rests = Samples.create ();
    updates = Samples.create ();
    setups = Samples.create ();
    rebuilds = Samples.create ();
    lookups = Samples.create () }

(* Where host times go: to [raw] as read, and to [scaled] multiplied by
   the host speed of the latest gauge reading, [reference /. gauge time],
   which [read_gauge] takes at the start of every round, before every
   tick and before every set-up. *)
type sink = { raw : acc; scaled : acc; speeds : Samples.t; mutable speed : float }

let sink ~traces = { raw = acc ~traces; scaled = acc ~traces; speeds = Samples.create (); speed = 1. }

let read_gauge sink =
  sink.speed <- Gauge.reference /. Gauge.time ();
  Samples.add sink.speeds sink.speed

let record sink (field : acc -> Samples.t) dt =
  Samples.add (field sink.raw) dt;
  Samples.add (field sink.scaled) (dt *. sink.speed)

(* What one episode produced: a pure function of the workload and seed. *)
type episode = {
  digest : string;  (** every tick report digest and window's stats *)
  modeled : float;  (** mean modeled per-packet latency over the windows *)
  window_words : float;  (** minor-heap words allocated inside window calls *)
  tick_words : float;  (** minor-heap words allocated inside ticks *)
  packets : int;
  fleet_ticks : int;
  redeploys : int;
  tables_rebuilt : int;
  downtime : float;
  cache : int * int;  (** shared warm cache (hits, misses) *)
  gossip : int;  (** [runtime.gossip.adopted] from the rollup; traced only *)
  rollup_redeploys : int;  (** [runtime.redeploys] from the rollup; traced only *)
  minor_gcs : int;
  major_gcs : int;
}

let apply ctl = function
  | W.Insert (table, e) -> C.insert ctl ~table e
  | W.Delete (table, e) -> C.delete ctl ~table e

let engine_apply eng = function
  | W.Insert (_, e) -> Nicsim.Engine.insert eng e
  | W.Delete (_, e) -> ignore (Nicsim.Engine.delete eng ~patterns:e.P4ir.Table.patterns)

let probe_reps = 64

let window_line b ~round ~member (s : Nicsim.Sim.window_stats) =
  Printf.bprintf b "w %d %d n=%d drops=%d avg=%h p50=%h p99=%h thr=%h\n" round member
    s.Nicsim.Sim.sampled_packets s.sampled_drops s.avg_latency s.p50_latency s.p99_latency
    s.throughput_gbps

let counter m name = Option.value ~default:0 (Telemetry.Metrics.find_counter m name)

(* The set-up a user pays before the fleet serves: build the program,
   create the fleet, and run one short warm-up window per member so
   every engine's lazy lookup plan is built. *)
let warmup_packets = 64

let setup (w : W.t) ~traced =
  let program = w.program () in
  let fleet = Fleet.create ~spec:{ w.spec with Fleet.telemetry = traced } w.target program in
  let sims = Array.map (fun m -> C.sim (Fleet.controller m)) (Array.of_list (Fleet.members fleet)) in
  let sources = Array.map (fun _ -> Array.map (fun tr -> Traffic.Trace.replay tr) w.traces) sims in
  Array.iteri
    (fun m sim ->
      ignore
        (Nicsim.Sim.run_window sim ~duration:w.duration ~packets:warmup_packets
           ~source:sources.(m).(w.trace_of ~round:0 ~member:m)))
    sims;
  (program, fleet, sims, sources)

(* Every timed set-up starts from a collected heap, so garbage left by
   the previous episode is not charged to the next one, and follows one
   gauge reading. *)
let timed_setup w ~traced ~sink ~(spans : Spans.t) =
  Gc.full_major ();
  read_gauge sink;
  let t0 = now () in
  let s = setup w ~traced in
  let t1 = now () in
  record sink (fun a -> a.setups) (seconds_between t0 t1);
  if traced then Spans.add spans ~parent:0 "setup" t0 t1;
  s

let run_episode (w : W.t) ~traced ~sink ~(spans : Spans.t) =
  let program, fleet, sims, sources = timed_setup w ~traced ~sink ~spans in
  let source ~round m = sources.(m).(w.trace_of ~round ~member:m) in
  (* The engine probe runs on a mirror of member 0's updated table --
     same entries, same updates -- so probing never perturbs the fleet. *)
  let mirror =
    if not traced then None
    else
      match P4ir.Program.find_table program w.probe_table with
      | Some (_, def) -> Some (Nicsim.Engine.create def)
      | None -> None
  in
  let probe_pkt = Nicsim.Packet.of_fields w.probe_flow in
  let b = Buffer.create 4096 in
  let modeled = ref 0. and nwin = ref 0 and packets = ref 0 in
  let window_words = ref 0. and tick_words = ref 0. and fleet_ticks = ref 0 in
  let redeploys = ref 0 and tables_rebuilt = ref 0 and downtime = ref 0. in
  let gc0 = Gc.quick_stat () in
  for round = 0 to w.rounds - 1 do
    read_gauge sink;
    let rid = Spans.fresh_id spans in
    let r0 = now () in
    Array.iteri
      (fun m _ ->
        match w.updates.(round).(m) with
        | [] -> ()
        | ops ->
          let ctl = Fleet.controller (Fleet.member fleet m) in
          let b0 = now () in
          List.iter
            (fun op ->
              let u0 = now () in
              apply ctl op;
              record sink (fun a -> a.updates) (seconds_between u0 (now ())))
            ops;
          let b1 = now () in
          if traced then Spans.add spans ~parent:rid "updates" b0 b1;
          (match mirror with
           | Some eng when m = 0 ->
             List.iter (engine_apply eng) ops;
             let p0 = now () in
             ignore (Sys.opaque_identity (Nicsim.Engine.lookup eng probe_pkt));
             let p1 = now () in
             for _ = 1 to probe_reps do
               ignore (Sys.opaque_identity (Nicsim.Engine.lookup eng probe_pkt))
             done;
             let p2 = now () in
             record sink (fun a -> a.rebuilds) (seconds_between p0 p1);
             record sink (fun a -> a.lookups) (seconds_between p1 p2 /. float_of_int probe_reps);
             Spans.add spans ~parent:rid "engine.probe" p0 p2
           | _ -> ()))
      sims;
    Array.iteri
      (fun m sim ->
        let src = source ~round m in
        let a0 = Gc.minor_words () in
        let w0 = now () in
        let s = Nicsim.Sim.run_window sim ~duration:w.duration ~packets:w.packets ~source:src in
        let w1 = now () in
        window_words := !window_words +. (Gc.minor_words () -. a0);
        let trace = w.trace_of ~round ~member:m in
        record sink (fun a -> a.windows) (seconds_between w0 w1);
        record sink (fun a -> a.by_trace.(trace)) (seconds_between w0 w1);
        if traced then Spans.add spans ~parent:rid "window" w0 w1;
        modeled := !modeled +. s.Nicsim.Sim.avg_latency;
        incr nwin;
        packets := !packets + w.packets;
        window_line b ~round ~member:m s)
      sims;
    if (round + 1) mod w.tick_every = 0 then begin
      read_gauge sink;
      let a0 = Gc.minor_words () in
      let k0 = now () in
      let reports = Fleet.tick_all ~domains:1 fleet in
      let k1 = now () in
      tick_words := !tick_words +. (Gc.minor_words () -. a0);
      incr fleet_ticks;
      if traced then Spans.add spans ~parent:rid "tick" k0 k1;
      let dt = seconds_between k0 k1 in
      let search = Array.fold_left (fun s (r : C.tick_report) -> s +. r.C.search_seconds) 0. reports in
      let installed = ref false in
      Array.iteri
        (fun m (r : C.tick_report) ->
          Printf.bprintf b "t %d %d %s\n" round m (Fleet.report_digest r);
          match r.C.deploy with
          | Some d when d.C.installed ->
            installed := true;
            incr redeploys;
            tables_rebuilt := !tables_rebuilt + d.C.tables_rebuilt;
            downtime := !downtime +. d.C.downtime_seconds
          | Some d -> downtime := !downtime +. d.C.downtime_seconds
          | None -> ())
        reports;
      record sink (fun a -> a.ticks) dt;
      record sink (fun a -> a.searches) search;
      record sink (fun a -> a.rests) (dt -. search);
      record sink (fun a -> if !installed then a.redeploy_ticks else a.hold_ticks) dt
    end;
    if traced then Spans.add spans ~id:rid ~parent:0 "round" r0 (now ())
  done;
  let gc1 = Gc.quick_stat () in
  let rollup = if traced then Some (Fleet.rollup fleet) else None in
  let from_rollup name = match rollup with Some m -> counter m name | None -> 0 in
  ( { digest = Digest.to_hex (Digest.string (Buffer.contents b));
    modeled = !modeled /. float_of_int (max 1 !nwin);
    window_words = !window_words;
    tick_words = !tick_words;
    packets = !packets;
    fleet_ticks = !fleet_ticks;
    redeploys = !redeploys;
    tables_rebuilt = !tables_rebuilt;
    downtime = !downtime;
    cache = Option.value ~default:(0, 0) (Fleet.shared_cache_stats fleet);
    gossip = from_rollup "runtime.gossip.adopted";
    rollup_redeploys = from_rollup "runtime.redeploys";
    minor_gcs = gc1.Gc.minor_collections - gc0.Gc.minor_collections;
    major_gcs = gc1.Gc.major_collections - gc0.Gc.major_collections },
  fleet )

(* Correctness: a held-out trace through every member's deployed data
   path, against the independent reference interpreter on that member's
   original program with the same live entries. Returns
   (attempted, failed). *)
let check_heldout (w : W.t) fleet =
  List.fold_left
    (fun (attempted, failed) m ->
      let ctl = Fleet.controller m in
      let original = C.original_program ctl in
      let ex = Nicsim.Sim.exec (C.sim ctl) in
      Array.fold_left
        (fun (a, f) flow ->
          let want = Fuzz.Refsim.run original flow in
          let got = Fuzz.Oracle.exec_obs ex flow in
          match Fuzz.Refsim.diff_obs ~compare_trace:false want got with
          | None -> (a + 1, f)
          | Some _ -> (a + 1, f + 1))
        (attempted, failed)
        w.heldout.(Fleet.index m))
    (0, 0) (Fleet.members fleet)

(* Tables per [Engine.plan_kind] over every member's deployed engines. *)
let plan_kinds = [ "exact-hash"; "exact-lru"; "linear"; "waldvogel"; "learned"; "tree"; "lpm-linear"; "ternary-skip" ]

let plan_counts fleet =
  let counts = Hashtbl.create 8 in
  List.iter
    (fun m ->
      let ex = Nicsim.Sim.exec (C.sim (Fleet.controller m)) in
      List.iter
        (fun (_, (tab : P4ir.Table.t)) ->
          match Nicsim.Exec.engine ex tab.P4ir.Table.name with
          | Some eng ->
            let k = Nicsim.Engine.plan_kind eng in
            Hashtbl.replace counts k (1 + Option.value ~default:0 (Hashtbl.find_opt counts k))
          | None -> ())
        (P4ir.Program.tables (Nicsim.Exec.program ex)))
    (Fleet.members fleet);
  List.map (fun k -> (k, Option.value ~default:0 (Hashtbl.find_opt counts k))) plan_kinds

type metric = { name : string; value : float; unit : string; samples : int; integral : bool }

type result = {
  attempted : int;
  failed : int;
  digest : string;  (** the reference episode's determinism digest *)
  end_to_end : metric list;  (** untraced runs only *)
  per_layer : metric list;  (** traced runs only *)
  notes : metric list;  (** printed in the table, not part of the result line *)
  spans : Spans.t;
}

let m ?(integral = false) name value unit samples = { name; value; unit; samples; integral }

(* Every timing is reported at the gauge's reference speed (see
   [Gauge]); the table also prints the host speed the gauge saw and the
   main figures as read, so the scaling can be checked. *)
let ms x = x *. 1e3
let us x = x *. 1e6

(* At least this many measured episodes of each kind, whatever
   [seconds] says. *)
let min_episodes = 2

(* [seconds] of measured episodes after one untimed warm-up episode;
   traced runs alternate untraced and traced episodes, so the tracing
   overhead comes from interleaved samples. *)
let run ~size ~seed ~seconds ~trace workload =
  let g0 = now () in
  let w = W.make ~size ~seed workload in
  let gen_s = seconds_between g0 (now ()) in
  let spans = Spans.create ~capacity:(if trace then 65536 else 1) in
  let sink () = sink ~traces:(Array.length w.traces) in
  let reference, fleet = run_episode w ~traced:false ~sink:(sink ()) ~spans in
  (* Only the latest episode's fleet stays alive: the end-of-run heap
     figure and the correctness check read it. *)
  let last_fleet = ref fleet in
  let untraced_sink = sink () and traced_sink = sink () in
  for _ = 1 to w.setups do
    ignore (Sys.opaque_identity (timed_setup w ~traced:false ~sink:untraced_sink ~spans))
  done;
  let start = now () in
  let episodes = ref [] in
  let k = ref 0 in
  while seconds_between start (now ()) < seconds || !k < min_episodes * if trace then 2 else 1 do
    let is_traced = trace && !k mod 2 = 1 in
    let sink = if is_traced then traced_sink else untraced_sink in
    let e, fleet = run_episode w ~traced:is_traced ~sink ~spans in
    last_fleet := fleet;
    episodes := (is_traced, e) :: !episodes;
    incr k
  done;
  let episodes = List.rev !episodes in
  let raw = untraced_sink.raw and untraced = untraced_sink.scaled and traced = traced_sink.scaled in
  Gc.full_major ();
  let heap_mb = float_of_int ((Gc.stat ()).Gc.live_words * (Sys.word_size / 8)) /. 1e6 in
  ignore (Sys.opaque_identity !last_fleet);
  (* Checks: every episode reproduces the reference episode; in traced
     episodes the telemetry rollup agrees with the tick reports and no
     span was dropped; the held-out trace forwards as the reference
     interpreter says. *)
  let same (e : episode) =
    e.digest = reference.digest && e.cache = reference.cache && e.modeled = reference.modeled
  in
  let checks =
    List.concat_map
      (fun (t, e) -> same e :: (if t then [ e.rollup_redeploys = e.redeploys ] else []))
      episodes
    @ if trace then [ Telemetry.Trace.dropped spans.trace = 0 ] else []
  in
  let h_att, h_fail = check_heldout w !last_fleet in
  let attempted = List.length checks + h_att in
  let failed = List.length (List.filter not checks) + h_fail in
  (* Gc counters need no tracing: they come from an untraced episode. *)
  let one = snd (List.find (fun (t, _) -> not t) episodes) in
  (* Traces differ in cost -- drift-dash alternates two phases, steady-lb
     gives each NIC its own -- so pooled windows form one mode per trace,
     and their median would fall between modes. The typical window is
     the mean over traces of each trace's median window. *)
  let pps a =
    let medians = Array.map Samples.median a.by_trace in
    float_of_int (w.packets * Array.length medians) /. Array.fold_left ( +. ) 0. medians
  in
  let n s = Samples.count s in
  let e2e =
    [ m "pkts_per_s" (pps untraced) "pkt/s" (n untraced.windows);
      m "window_ms_p90" (ms (Samples.pct untraced.windows 90.)) "ms" (n untraced.windows);
      m "tick_ms_p50" (ms (Samples.median untraced.ticks)) "ms" (n untraced.ticks);
      m "tick_ms_p90" (ms (Samples.pct untraced.ticks 90.)) "ms" (n untraced.ticks);
      m "update_us_p50" (us (Samples.median untraced.updates)) "us" (n untraced.updates);
      m "update_us_p90" (us (Samples.pct untraced.updates 90.)) "us" (n untraced.updates);
      m "modeled_latency" reference.modeled "latency_units" (reference.packets / w.packets);
      m "setup_s" (Samples.median untraced.setups) "s" (n untraced.setups);
      m "heap_mb" heap_mb "MB" 1 ]
  in
  let nticks = n untraced.ticks in
  let notes =
    [ m "fail_frac" (float_of_int failed /. float_of_int (max 1 attempted)) "ratio" attempted;
      m "tick.redeploy_share"
        (float_of_int (n untraced.redeploy_ticks) /. float_of_int (max 1 nticks))
        "ratio" nticks;
      m "tick.hold_ms_p50" (ms (Samples.median untraced.hold_ticks)) "ms" (n untraced.hold_ticks);
      m "tick.redeploy_ms_p50" (ms (Samples.median untraced.redeploy_ticks)) "ms" (n untraced.redeploy_ticks);
      m "host.speed" (Samples.median untraced_sink.speeds) "ratio" (n untraced_sink.speeds);
      m "raw.pkts_per_s" (pps raw) "pkt/s" (n raw.windows);
      m "raw.tick_ms_p50" (ms (Samples.median raw.ticks)) "ms" (n raw.ticks);
      m "raw.update_us_p50" (us (Samples.median raw.updates)) "us" (n raw.updates);
      m "raw.setup_s" (Samples.median raw.setups) "s" (n raw.setups);
      m "episodes" (float_of_int (List.length episodes)) "count" 1 ~integral:true ]
  in
  let per_layer =
    if not trace then []
    else
      let ratio (h, mi) = if h + mi = 0 then 0. else float_of_int h /. float_of_int (h + mi) in
      let cnt name v = m ~integral:true name (float_of_int v) "count" 1 in
      let pct_over t u = ((t /. u) -. 1.) *. 100. in
      [ m "sim.alloc_words_per_pkt" (one.window_words /. float_of_int one.packets) "words" one.packets;
        cnt "sim.window_samples" (n traced.windows + n untraced.windows);
        m "engine.rebuild_ms_p50" (ms (Samples.median traced.rebuilds)) "ms" (n traced.rebuilds);
        m "engine.lookup_ns_p50" (Samples.median traced.lookups *. 1e9) "ns" (n traced.lookups) ]
      @ List.map (fun (k, v) -> cnt ("engine.plans." ^ k) v) (plan_counts !last_fleet)
      @ [ m "controller.search_ms_p50" (ms (Samples.median traced.searches)) "ms" (n traced.searches);
          m "fleet.cache_hit_ratio" (ratio reference.cache) "ratio" 1;
          m "controller.rest_ms_p50" (ms (Samples.median traced.rests)) "ms" (n traced.rests);
          m "controller.hold_tick_ms_p50" (ms (Samples.median traced.hold_ticks)) "ms" (n traced.hold_ticks);
          m "controller.redeploy_tick_ms_p50" (ms (Samples.median traced.redeploy_ticks)) "ms"
            (n traced.redeploy_ticks);
          cnt "controller.redeploys" reference.redeploys;
          cnt "controller.tables_rebuilt" reference.tables_rebuilt;
          m "controller.downtime_s" reference.downtime "s" 1;
          m "controller.alloc_mwords_per_tick"
            (one.tick_words /. 1e6 /. float_of_int (max 1 one.fleet_ticks))
            "Mwords" one.fleet_ticks;
          cnt "fleet.gossip_adopted"
            (match List.find_opt fst episodes with Some (_, e) -> e.gossip | None -> 0);
          cnt "gc.minor_collections" one.minor_gcs;
          cnt "gc.major_collections" one.major_gcs;
          m "traffic.gen_s" gen_s "s" 1;
          m "trace.overhead_pct.pkts_per_s" (pct_over (pps untraced) (pps traced)) "%" (n traced.windows);
          m "trace.overhead_pct.tick_ms_p50"
            (pct_over (Samples.median traced.ticks) (Samples.median untraced.ticks))
            "%" (n traced.ticks) ]
  in
  let reported = if trace then per_layer else e2e in
  (* A metric that is not a finite number is a failed check. *)
  let finite = List.for_all (fun x -> Float.is_finite x.value) reported in
  { attempted = attempted + 1;
    failed = (failed + if finite then 0 else 1);
    digest = reference.digest;
    end_to_end = (if trace then [] else e2e);
    per_layer;
    notes = (if trace then [] else notes);
    spans }
