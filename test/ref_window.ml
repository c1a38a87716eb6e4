(* Reference window for the bit-identity tests: the interpreter
   ([Nicsim.Exec.run_packet]) over the same timestamps and sequence
   numbers [Nicsim.Sim.run_window] gives each packet, with the window
   stats and window metrics derived the way [Sim] derives them. Tests
   compare [Sim.run_window] against it bit for bit. *)

module H = Telemetry.Histogram
module M = Telemetry.Metrics

let run sim ~duration ~packets ~source : Nicsim.Sim.window_stats =
  let ex = Nicsim.Sim.exec sim in
  let start = Nicsim.Sim.now sim in
  let lat = Array.make packets 0. in
  let drops = ref 0 in
  for i = 0 to packets - 1 do
    let pkt = source () in
    let now = start +. (duration *. float_of_int i /. float_of_int packets) in
    lat.(i) <- Nicsim.Exec.run_packet ex ~now pkt;
    if Nicsim.Packet.is_dropped pkt then incr drops
  done;
  Nicsim.Sim.advance sim duration;
  let hist = H.create () in
  Array.iter (H.record hist) lat;
  let avg = Array.fold_left ( +. ) 0. lat /. float_of_int packets in
  let sorted = Array.copy lat in
  Array.sort Float.compare sorted;
  let throughput = Costmodel.Target.throughput_gbps (Nicsim.Sim.target sim) ~latency:avg in
  let drop_fraction = float_of_int !drops /. float_of_int packets in
  let tel = Nicsim.Exec.telemetry ex in
  if Telemetry.enabled tel then begin
    let m = Telemetry.metrics tel in
    H.merge_into ~dst:(M.histogram m "nicsim.latency") ~src:hist;
    M.inc (M.counter m "nicsim.windows");
    M.set (M.gauge m "nicsim.window.throughput_gbps") throughput;
    M.set (M.gauge m "nicsim.window.avg_latency") avg;
    M.set (M.gauge m "nicsim.window.drop_fraction") drop_fraction;
    List.iter
      (fun (_, (tab : P4ir.Table.t)) ->
        M.set
          (M.gauge m ("nicsim.table." ^ tab.name ^ ".entries"))
          (float_of_int (Nicsim.Engine.num_entries (Nicsim.Exec.engine_exn ex tab.name))))
      (P4ir.Program.tables (Nicsim.Exec.program ex))
  end;
  { Nicsim.Sim.window_start = start;
    window_duration = duration;
    sampled_packets = packets;
    sampled_drops = !drops;
    avg_latency = avg;
    p99_latency = sorted.(min (packets - 1) (packets * 99 / 100));
    p50_latency = H.quantile hist 0.5;
    p90_latency = H.quantile hist 0.9;
    p999_latency = H.quantile hist 0.999;
    throughput_gbps = throughput;
    drop_fraction }
