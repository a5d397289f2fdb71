(* The repository benchmark.

     bench.exe --workload NAME --seed N --seconds S --trace 0|1

   runs one workload for about S seconds of measurement, checks every
   output, prints the workload's detail lines, and ends with one JSON line:
   the end-to-end metrics (--trace 0) or the per-layer split (--trace 1).
   Exits 1 when an output check failed. *)

let workloads =
  [
    ("long-history", Long_history.run);
    ("exhaustive", Exhaustive_cells.run);
    ("queue-judge", Queue_judge.run);
    ("service", Service_loop.run);
  ]

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measured time");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end metrics or per-layer split");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload NAME --seed N --seconds S --trace 0|1";
  match List.assoc_opt !workload workloads with
  | None ->
    Printf.eprintf "unknown workload %S (one of: %s)\n" !workload
      (String.concat ", " (List.map fst workloads));
    exit 2
  | Some run ->
    let r = Common.report () in
    let metrics = run ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1) r in
    Printf.printf "workload %s, seed %d, trace %d\n" !workload !seed !trace;
    Common.print_result r ~metrics;
    if r.Common.failed > 0 then exit 1
