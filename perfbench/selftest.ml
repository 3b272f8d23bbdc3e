(* Self-tests of the benchmark: the tail-percentile rule, the host probe,
   the metric-name grammar against BENCHMARK.json, fail_ratio accounting
   under an injected wrong expectation, and that tracing leaves every
   exact count unchanged. *)

open Perfbench
module Json = Rsti_staticcheck.Json

let check = Alcotest.(check bool)

let test_tail_rule () =
  Alcotest.(check int) "below 20 samples: median" 50 (Stat.tail_pct 19);
  Alcotest.(check int) "60 units" 83 (Stat.tail_pct 60);
  Alcotest.(check int) "300 units" 96 (Stat.tail_pct 300);
  Alcotest.(check int) "capped at p99" 99 (Stat.tail_pct 100_000);
  for n = 20 to 5000 do
    let p = Stat.tail_pct n in
    check (Printf.sprintf "n=%d: p%d leaves 10 beyond" n p) true (Stat.beyond p n >= 10);
    if p < 99 then
      check (Printf.sprintf "n=%d: p%d is the highest" n p) true
        (Stat.beyond (p + 1) n < 10)
  done;
  let a = Array.init 100 (fun i -> float_of_int (100 - i)) in
  Alcotest.(check (float 0.)) "nearest rank p90" 90. (Stat.percentile 90. a);
  Alcotest.(check (float 0.)) "median" 50. (Stat.median a)

let options ?(trace = false) w =
  {
    Harness.workload = w;
    seed = Workloads.default_seed;
    seconds = 0.;
    trace;
    expected_dir = "expected";
    out_dir = "out";
    record = false;
  }

(* The metric names of BENCHMARK.json's [key] list. *)
let declared key =
  let text = In_channel.with_open_text "../BENCHMARK.json" In_channel.input_all in
  match Json.of_string text with
  | Ok (Json.Obj fields) -> (
      match List.assoc_opt key fields with
      | Some (Json.List ms) ->
          List.map
            (function
              | Json.Obj m -> (
                  match (List.assoc_opt "name" m, List.assoc_opt "unit" m) with
                  | Some (Json.Str n), Some (Json.Str u) -> (n, u)
                  | _ -> Alcotest.fail "metric without name or unit")
              | _ -> Alcotest.fail "metric is not an object")
            ms
      | _ -> Alcotest.fail ("BENCHMARK.json has no list " ^ key))
  | _ -> Alcotest.fail "BENCHMARK.json does not parse"

let test_names () =
  let emitted trace =
    (Harness.run (options ~trace Workloads.attack)).Harness.metrics
    |> List.map (fun (n, _, u) -> (n, u))
  in
  List.iter
    (fun (key, trace) ->
      let got = emitted trace in
      List.iter
        (fun (n, u) ->
          check ("name grammar: " ^ n) true (Stat.name_ok n);
          check ("unit grammar: " ^ u) true (Stat.unit_ok u))
        got;
      Alcotest.(check int)
        (key ^ ": names are unique")
        (List.length got)
        (List.length (List.sort_uniq compare (List.map fst got)));
      Alcotest.(check (list (pair string string)))
        (key ^ " = what the run prints")
        (List.sort compare (declared key))
        (List.sort compare got))
    [ ("end_to_end", false); ("per_layer", true) ]

(* A few units of a prepared workload, chosen by label. *)
let subset (p : Workloads.prepared) keep =
  let idx =
    Array.of_list
      (List.filter (fun u -> keep p.labels.(u)) (List.init (Array.length p.labels) Fun.id))
  in
  {
    p with
    Workloads.labels = Array.map (fun u -> p.labels.(u)) idx;
    config = Array.map (fun u -> p.config.(u)) idx;
    run = (fun u c -> p.run idx.(u) c);
  }

(* One pair's replays carry a wrong expected verdict. A run of many
   passes over them and the replays of one correct pair must count every
   failing replay of every pass, traced pass included, under [failed]
   and [attacks.verdict_mismatches] alike. *)
let test_fail_ratio () =
  let label ((sc : Rsti_attacks.Scenario.t), m, _) =
    sc.id ^ "/" ^ Workloads.configs.(Workloads.config_index m)
  in
  let pairs = Workloads.attack_pairs () in
  let wrong = label (List.nth pairs 0) and right = label (List.nth pairs 1) in
  let w =
    {
      Workloads.attack with
      name = "attack-fail-test";
      setup =
        (fun ~seed ~expected ->
          subset
            (Workloads.attack_setup ~inject_wrong:0 ~seed ~expected ())
            (fun l -> l = wrong || l = right));
    }
  in
  let r = Harness.run { (options ~trace:true w) with seconds = 0.3 } in
  let units = 2 * Workloads.attack_reps in
  let passes = r.attempted / units in
  check "several passes" true (passes > 2);
  Alcotest.(check int) "attempted = units x passes" (units * passes) r.attempted;
  Alcotest.(check int) "each pass's wrong replays fail" (Workloads.attack_reps * passes) r.failed;
  let metric n =
    match List.find_opt (fun (m, _, _) -> m = n) r.metrics with
    | Some (_, v, _) -> v
    | None -> Alcotest.fail ("no metric " ^ n)
  in
  Alcotest.(check (float 0.))
    "verdict_mismatches = failed" (float_of_int r.failed)
    (metric "attacks.verdict_mismatches");
  Alcotest.(check (float 0.))
    "no other failure counter" 0.
    (metric "machine.divergences" +. metric "dataflow.validate_failures");
  Alcotest.(check (float 1e-12)) "fail_ratio = failed / attempted" 0.5 (metric "fail_ratio");
  check "the run is not correct" false r.correct

(* Probes run a timing-dependent number of times per pass, so they must
   not allocate, or the minor-heap count of a pass would drift. *)
let test_probe_alloc () =
  let words k =
    let w0 = Gc.minor_words () in
    ignore (Sys.opaque_identity (Host.probe_ns k));
    Gc.minor_words () -. w0
  in
  Alcotest.(check (float 0.)) "probe words do not grow with loops" (words 1) (words 50)

let traced_equals_untraced (w : Workloads.t) keep () =
  let expected =
    Expected.load ~recording:false (Filename.concat "expected" (w.name ^ ".tsv"))
  in
  let p = subset (w.setup ~seed:Workloads.default_seed ~expected) keep in
  check "subset is not empty" true (Array.length p.labels > 0);
  let untraced = Harness.run_pass p in
  let r = Trace.recorder ~cap:(Array.length p.labels * 32) in
  let traced = Trace.with_recorder r (fun () -> Harness.run_pass p) in
  check "spans were recorded" true (r.Trace.len > Array.length p.labels);
  Alcotest.(check int) "no failures" 0 (untraced.Harness.failed + traced.Harness.failed);
  Alcotest.(check (list (triple string (float 0.) (float 0.))))
    "exact counts"
    []
    (Counts.diff untraced.Harness.counts traced.Harness.counts)

let prefix s label = String.starts_with ~prefix:s label

let () =
  Alcotest.run "perfbench"
    [
      ( "stat",
        [
          Alcotest.test_case "tail percentile rule" `Quick test_tail_rule;
          Alcotest.test_case "host probe allocates nothing" `Quick test_probe_alloc;
        ] );
      ( "report",
        [
          Alcotest.test_case "metric names match BENCHMARK.json" `Quick test_names;
          Alcotest.test_case "fail_ratio with a wrong expectation" `Quick
            test_fail_ratio;
        ] );
      ( "trace",
        [
          Alcotest.test_case "simulate counts unchanged" `Quick
            (traced_equals_untraced Workloads.simulate (prefix "mcf/"));
          Alcotest.test_case "analyze counts unchanged" `Quick
            (traced_equals_untraced Workloads.analyze (fun l ->
                 l = "spec.mcf" || prefix "gen0" l));
          Alcotest.test_case "attack counts unchanged" `Quick
            (traced_equals_untraced Workloads.attack (fun _ -> true));
        ] );
    ]
