(* Every workload at smoke size, in-process: result fields, metric names
   against BENCHMARK.json, digest repeatability, and the held-out check's
   power to catch a data path that disagrees with the reference. *)

open Perfbench

let bench_json = lazy (P4ir.Json.of_string_exn (In_channel.with_open_bin "../../BENCHMARK.json" In_channel.input_all))

let names key =
  List.map
    (fun m -> P4ir.Json.get_string (P4ir.Json.member "name" m))
    (P4ir.Json.to_list (P4ir.Json.member key (Lazy.force bench_json)))

let run ?(seed = 3) ~trace w = Runner.run ~size:Workloads.Smoke ~seed ~seconds:0.01 ~trace w

let check_metrics ~expected (ms : Runner.metric list) =
  Alcotest.(check (list string)) "metric names" expected (List.map (fun (m : Runner.metric) -> m.name) ms);
  List.iter
    (fun (m : Runner.metric) ->
      if not (Float.is_finite m.value) then Alcotest.failf "%s = %g is not finite" m.name m.value)
    ms

let untraced w () =
  let r = run ~trace:false w in
  Alcotest.(check int) "failed checks" 0 r.failed;
  Alcotest.(check bool) "checks attempted" true (r.attempted > 0);
  check_metrics ~expected:(names "end_to_end") r.end_to_end;
  List.iter
    (fun (m : Runner.metric) ->
      if m.value <= 0. then Alcotest.failf "end-to-end metric %s is 0" m.name)
    r.end_to_end;
  let again = run ~trace:false w in
  Alcotest.(check string) "digest repeats for a seed" r.digest again.digest;
  let other = run ~seed:4 ~trace:false w in
  Alcotest.(check bool) "digest follows the seed" true (r.digest <> other.digest)

let traced w () =
  let r = run ~trace:true w in
  Alcotest.(check int) "failed checks" 0 r.failed;
  check_metrics ~expected:(names "per_layer") r.per_layer;
  Alcotest.(check bool) "spans recorded" true (Telemetry.Trace.length r.spans.Runner.Spans.trace > 0)

(* An entry written straight into one NIC's data path, behind the
   controller: the deployed program no longer matches the original, and
   the held-out check must notice. *)
let heldout_catches_tampering () =
  let w = Workloads.make ~size:Workloads.Smoke ~seed:3 "steady-lb" in
  let _, fleet, sims, _ = Runner.setup w ~traced:false in
  let clean_attempted, clean_failed = Runner.check_heldout w fleet in
  Alcotest.(check int) "clean fleet" 0 clean_failed;
  Nicsim.Sim.insert sims.(0) ~table:"edge_acl"
    (P4ir.Table.entry ~priority:99 [ P4ir.Pattern.Ternary (0L, 0L) ] "deny");
  let attempted, failed = Runner.check_heldout w fleet in
  Alcotest.(check int) "same checks" clean_attempted attempted;
  Alcotest.(check bool) "tampered member caught" true (failed > 0)

let () =
  Alcotest.run "perfbench"
    [ ("untraced", List.map (fun w -> Alcotest.test_case w `Quick (untraced w)) Workloads.names);
      ("traced", List.map (fun w -> Alcotest.test_case w `Quick (traced w)) Workloads.names);
      ("correctness", [ Alcotest.test_case "held-out check catches tampering" `Quick heldout_catches_tampering ]) ]
