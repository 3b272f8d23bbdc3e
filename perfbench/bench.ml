(* Command line of the benchmark; see README.md. The last line printed
   is the JSON result. *)

let () =
  let workload = ref "" and seed = ref Perfbench.Workloads.default_seed in
  let seconds = ref 20. and trace = ref 0 and record = ref false in
  let expected_dir = ref "perfbench/expected" and out_dir = ref "perfbench/out" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME simulate | analyze | attack");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S time budget of the timed passes");
      ("--trace", Arg.Set_int trace, "0|1 add a traced pass and report per-layer metrics");
      ("--expected-dir", Arg.Set_string expected_dir, "DIR committed expectations");
      ("--out-dir", Arg.Set_string out_dir, "DIR where counts and traces are written");
      ("--record", Arg.Set record, " rewrite the committed expectations from this run");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1]";
  match Perfbench.Workloads.find !workload with
  | None ->
      prerr_endline ("unknown workload: " ^ !workload);
      exit 2
  | Some w ->
      let r =
        Perfbench.Harness.run
          {
            workload = w;
            seed = !seed;
            seconds = !seconds;
            trace = !trace = 1;
            expected_dir = !expected_dir;
            out_dir = !out_dir;
            record = !record;
          }
      in
      print_endline (Perfbench.Harness.result_line r)
