(* Command-line entry point of the fleet benchmark; see README.md. Prints
   one line per metric -- name, value, unit, sample count -- and, as the
   last line, the result object:
   {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}. *)

open Perfbench

(* Non-finite values print as 0 (JSON has no nan); the run counts them
   as a failed check. *)
let number (x : Runner.metric) =
  if not (Float.is_finite x.value) then "0"
  else if x.integral then Printf.sprintf "%d" (int_of_float x.value)
  else Printf.sprintf "%.17g" x.value

(* Relative to the working directory, the repository root under run.py. *)
let spans_dir = ".perfbench"

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let spec =
    [ ("--workload", Arg.Set_string workload, " " ^ String.concat " | " Workloads.names);
      ("--seed", Arg.Set_int seed, " seed the inputs are generated from");
      ("--seconds", Arg.Set_float seconds, " measured time");
      ("--trace", Arg.Set_int trace, " 0: end-to-end metrics; 1: traced run, per-layer metrics") ]
  in
  let usage = "bench.exe --workload NAME --seed N --seconds S --trace 0|1" in
  Arg.parse (Arg.align spec) (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  if not (List.mem !workload Workloads.names) || (!trace <> 0 && !trace <> 1) || !seconds <= 0. then begin
    Arg.usage (Arg.align spec) usage;
    exit 2
  end;
  let r = Runner.run ~size:Workloads.Full ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1) !workload in
  let metrics = if !trace = 1 then r.per_layer else r.end_to_end in
  Printf.printf "workload %s seed %d trace %d digest %s\n" !workload !seed !trace r.digest;
  List.iter
    (fun (x : Runner.metric) -> Printf.printf "  %-36s %14s %-14s n=%d\n" x.name (number x) x.unit x.samples)
    (metrics @ r.notes);
  if !trace = 1 then begin
    Printf.printf "  span self time (s):\n";
    List.iter
      (fun (name, total, self) -> Printf.printf "    %-14s total %10.4f self %10.4f\n" name total self)
      (Runner.Spans.self_times r.spans);
    (try Sys.mkdir spans_dir 0o755 with Sys_error _ -> ());
    let path = Filename.concat spans_dir (Printf.sprintf "spans-%s-seed%d.json" !workload !seed) in
    Telemetry.Trace.write_file ~process_name:"perfbench" r.spans.Runner.Spans.trace path;
    Printf.printf "  spans written to %s\n" path
  end;
  let json =
    String.concat ", "
      (List.map
         (fun (x : Runner.metric) ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" x.name (number x) x.unit)
         metrics)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (r.failed = 0) r.attempted r.failed json
