(* Tests for the telemetry layer: the span recorder (nesting, the
   disabled no-op contract, well-formed Chrome trace output), the
   metrics registry (roundtrip through its JSON document), the
   determinism contract (span name-tree and non-volatile counters are
   identical whether a suite runs on one domain or four), the exact
   hot-site profiler (sites partition every global counter, and
   re-pricing a cached profiled run matches a fresh simulation
   per-site), the per-stage cache statistics, the histogram
   percentiles, the sorted-JSONL event log (byte-identical at any job
   count, including the full incident collection), the incident
   coverage invariant (every detected attack maps into the static
   attack surface), and a qcheck property tying flight-recorder
   latency attribution to the exact profiler's counters. *)

module Observe = Rsti_observe.Observe
module Span = Observe.Span
module M = Observe.Metrics
module J = Rsti_util.Json
module Pipeline = Rsti_engine.Pipeline
module Scheduler = Rsti_engine.Scheduler
module Cache = Rsti_engine.Cache
module Interp = Rsti_machine.Interp
module Workload = Rsti_workloads.Workload
module RT = Rsti_sti.Rsti_type

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* Enable span recording around [f], restoring the disabled default
   (and an empty record list) whatever happens. *)
let with_spans f =
  Observe.set_enabled true;
  Span.reset ();
  Fun.protect
    ~finally:(fun () ->
      Observe.set_enabled false;
      Span.reset ())
    f

(* ------------------------------ spans ------------------------------ *)

let test_span_records () =
  with_spans (fun () ->
      Span.with_ "outer" (fun () ->
          Span.with_ ~attrs:[ ("k", "v") ] "inner" (fun () -> ());
          Span.with_ "inner" (fun () -> ()));
      let rs = Span.records () in
      checki "three spans recorded" 3 (List.length rs);
      let outer = List.find (fun r -> r.Span.name = "outer") rs in
      checki "outer is a root" (-1) outer.Span.parent;
      List.iter
        (fun r ->
          if r.Span.name = "inner" then
            checki "inner nests under outer" outer.Span.id r.Span.parent)
        rs;
      let inner = List.find (fun r -> r.Span.name = "inner") rs in
      checkb "attribute recorded" true (List.mem ("k", "v") inner.Span.attrs);
      List.iter
        (fun r ->
          checkb "span interval is non-negative" true
            (Int64.compare r.Span.t_end_ns r.Span.t_start_ns >= 0))
        rs)

let test_disabled_noop () =
  Observe.set_enabled false;
  Span.reset ();
  let sp = Span.enter "nope" in
  checkb "enter returns the preallocated none handle" true (sp == Span.none);
  Span.add_attr sp "k" "v";
  Span.exit sp;
  checki "nothing recorded while disabled" 0 (List.length (Span.records ()))

(* ----------------------------- metrics ----------------------------- *)

let test_metrics_registry () =
  M.reset ();
  let c = M.counter "test.alpha" in
  M.incr c;
  M.add c 4;
  checki "counter accumulates" 5 (M.value c);
  checki "registration is idempotent" 5 (M.value (M.counter "test.alpha"));
  let g = M.gauge "test.gamma" in
  M.set_gauge g 42;
  checki "gauge holds last value" 42 (M.gauge_value g);
  let h = M.histogram "test.hist" in
  M.observe h 1.5;
  M.observe h 2.5;
  (match J.of_string (J.to_string (M.to_json ())) with
  | Error e -> Alcotest.failf "metrics JSON does not parse: %s" e
  | Ok (J.Obj fields) -> (
      checkb "schema tag" true
        (List.assoc "schema" fields = J.Str "rsti-metrics/1");
      (match List.assoc "counters" fields with
      | J.Obj cs ->
          checkb "counter in document" true
            (List.assoc "test.alpha" cs = J.Int 5)
      | _ -> Alcotest.fail "counters is not an object");
      match List.assoc "histograms" fields with
      | J.Obj hs -> (
          match List.assoc "test.hist" hs with
          | J.Obj fs ->
              checkb "histogram count" true (List.assoc "count" fs = J.Int 2)
          | _ -> Alcotest.fail "histogram entry is not an object")
      | _ -> Alcotest.fail "histograms is not an object")
  | Ok _ -> Alcotest.fail "metrics JSON is not an object");
  M.reset ();
  checki "reset zeroes values" 0 (M.value c)

(* --------------------------- chrome trace --------------------------- *)

let test_chrome_trace_wellformed () =
  with_spans (fun () ->
      Cache.clear ();
      let w = List.hd Rsti_workloads.Nbench.all in
      let src = Pipeline.source ~file:"trace.c" w.Workload.source in
      ignore
        (Pipeline.run
           (Pipeline.instrument RT.Stwc
              (Pipeline.analyze (Pipeline.compile src))));
      match J.of_string (J.to_string (Span.chrome_trace ())) with
      | Error e -> Alcotest.failf "trace does not parse: %s" e
      | Ok (J.Obj fields) -> (
          match List.assoc_opt "traceEvents" fields with
          | Some (J.List evs) ->
              checkb "events recorded" true (evs <> []);
              List.iter
                (function
                  | J.Obj fs ->
                      List.iter
                        (fun k ->
                          checkb (k ^ " field present") true
                            (List.mem_assoc k fs))
                        [ "name"; "cat"; "ph"; "ts"; "dur"; "pid"; "tid" ];
                      checkb "complete (\"X\") event" true
                        (List.assoc "ph" fs = J.Str "X")
                  | _ -> Alcotest.fail "event is not an object")
                evs
          | _ -> Alcotest.fail "no traceEvents list")
      | Ok _ -> Alcotest.fail "trace document is not an object")

(* --------------------- determinism across jobs ---------------------- *)

(* The claim split (own vs. steal), the per-worker task counters, and
   which racing domain gets charged the duplicated recomputation are
   scheduling noise by construction; everything else must be identical
   for any job count. *)
let volatile name =
  let prefixed p =
    String.length name >= String.length p && String.sub name 0 (String.length p) = p
  in
  (prefixed "scheduler." && name <> "scheduler.tasks")
  || Filename.check_suffix name ".duplicated"

let span_paths () =
  let rs = Span.records () in
  let tbl = Hashtbl.create 64 in
  List.iter (fun r -> Hashtbl.replace tbl r.Span.id r) rs;
  let rec path r =
    match Hashtbl.find_opt tbl r.Span.parent with
    | Some p -> path p ^ "/" ^ r.Span.name
    | None -> r.Span.name
  in
  List.sort compare (List.map path rs)

let telemetry_run ~jobs () =
  Observe.reset ();
  Cache.clear ();
  let ws = List.filteri (fun i _ -> i < 3) Rsti_workloads.Nbench.all in
  ignore
    (Scheduler.map ~jobs
       (fun (w : Workload.t) ->
         let src = Pipeline.source ~file:(w.name ^ ".c") w.source in
         let i =
           Pipeline.instrument RT.Stwc
             (Pipeline.analyze (Pipeline.compile src))
         in
         (Pipeline.run i).Interp.cycles)
       ws);
  let counters =
    List.filter (fun (n, _) -> not (volatile n)) (M.counters ())
  in
  (span_paths (), counters)

let test_telemetry_identical_across_jobs () =
  Observe.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Observe.set_enabled false;
      Observe.reset ())
    (fun () ->
      let paths1, counters1 = telemetry_run ~jobs:1 () in
      let paths4, counters4 = telemetry_run ~jobs:4 () in
      checkb "span name-tree identical jobs=1 vs 4" true (paths1 = paths4);
      checki "same counter count" (List.length counters1)
        (List.length counters4);
      List.iter2
        (fun (n1, v1) (n2, v2) ->
          checkb (Printf.sprintf "counter name %s" n1) true (n1 = n2);
          checki (Printf.sprintf "counter %s jobs=1 vs 4" n1) v1 v2)
        counters1 counters4)

(* ---------------------------- profiler ------------------------------ *)

(* The exact profiler's partition invariant: an outcome's sites sum to
   the global cycle and event counters, for every kernel and mechanism. *)
let test_profiler_partitions_totals () =
  let kernels =
    [
      List.hd Rsti_workloads.Spec2006.all;
      List.hd Rsti_workloads.Nbench.all;
      List.hd Rsti_workloads.Pytorch.all;
    ]
  in
  let config = { Pipeline.default with Pipeline.cache = false } in
  List.iter
    (fun (w : Workload.t) ->
      List.iter
        (fun mech ->
          let src = Pipeline.source ~file:(w.name ^ ".c") w.source in
          let i =
            Pipeline.instrument ~config mech
              (Pipeline.analyze ~config (Pipeline.compile ~config src))
          in
          let o = Pipeline.run ~config ~profile:true i in
          let sum f = List.fold_left (fun acc s -> acc + f s) 0 o.Interp.sites in
          let name what =
            Printf.sprintf "%s/%s: %s" w.name (RT.mechanism_to_string mech)
              what
          in
          checkb (name "profile non-empty") true (o.Interp.sites <> []);
          checki (name "cycles partition") o.Interp.cycles
            (sum (fun s -> s.Interp.s_cycles));
          checki (name "instrs partition") o.Interp.counts.Interp.instrs
            (sum (fun s -> s.Interp.s_instrs));
          checki (name "pac-charge partition")
            o.Interp.counts.Interp.pac_charges
            (sum (fun s -> s.Interp.s_pac_charges));
          checki (name "strip partition") o.Interp.counts.Interp.pac_strips
            (sum (fun s -> s.Interp.s_strips));
          checki (name "pp partition") o.Interp.counts.Interp.pp_calls
            (sum (fun s -> s.Interp.s_pp_calls));
          let o0 = Pipeline.run ~config i in
          checki (name "profiling does not change cycles") o0.Interp.cycles
            o.Interp.cycles;
          checkb (name "unprofiled outcome has no sites") true
            (o0.Interp.sites = []))
        RT.all_mechanisms)
    kernels

(* Serving a profiled run from the cache under a different PA cost
   re-prices every site exactly: the served sites equal a fresh
   profiled simulation's, per-site. *)
let test_profile_reprice_exact () =
  Cache.clear ();
  let w = List.hd Rsti_workloads.Nbench.all in
  let src = Pipeline.source ~file:"prof_reprice.c" w.Workload.source in
  let a = Pipeline.analyze (Pipeline.compile src) in
  let i = Pipeline.instrument RT.Stwc a in
  let config pac =
    {
      Pipeline.default with
      Pipeline.costs = Rsti_machine.Cost.(with_pac default pac);
    }
  in
  ignore (Pipeline.run ~config:(config 7) ~profile:true i);
  List.iter
    (fun pac ->
      let served = Pipeline.run ~config:(config pac) ~profile:true i in
      let fresh =
        Pipeline.run
          ~config:{ (config pac) with Pipeline.cache = false }
          ~profile:true i
      in
      checki
        (Printf.sprintf "cycles at pac=%d" pac)
        fresh.Interp.cycles served.Interp.cycles;
      checkb
        (Printf.sprintf "per-site profile at pac=%d" pac)
        true
        (served.Interp.sites = fresh.Interp.sites);
      checki
        (Printf.sprintf "repriced sites still partition at pac=%d" pac)
        served.Interp.cycles
        (List.fold_left (fun acc s -> acc + s.Interp.s_cycles) 0
           served.Interp.sites))
    [ 3; 12 ]

(* ------------------------- per-stage cache -------------------------- *)

let test_cache_stage_stats () =
  Cache.clear ();
  let w = List.hd Rsti_workloads.Nbench.all in
  let src = Pipeline.source ~file:"stage.c" w.Workload.source in
  let go () = Pipeline.analyze (Pipeline.compile src) in
  ignore (go ());
  ignore (go ());
  let st = Cache.stage_stats () in
  checkb "stages in pipeline order" true
    (List.map fst st
    = [
        "compile";
        "analysis";
        "points_to";
        "points_to_cs";
        "scope_escape";
        "elide";
        "elide_pt";
        "elide_ctx";
        "instrument";
        "outcome";
        "attack_surface";
      ]);
  let find n = List.assoc n st in
  checki "one compile miss" 1 (find "compile").Cache.misses;
  checkb "compile hit on the second pass" true
    ((find "compile").Cache.hits >= 1);
  checki "one analysis miss" 1 (find "analysis").Cache.misses;
  let agg = Cache.stats () in
  checki "aggregate hits = stage sum" agg.Cache.hits
    (List.fold_left (fun acc (_, s) -> acc + s.Cache.hits) 0 st);
  checki "aggregate misses = stage sum" agg.Cache.misses
    (List.fold_left (fun acc (_, s) -> acc + s.Cache.misses) 0 st);
  checki "aggregate duplicated = stage sum" agg.Cache.duplicated
    (List.fold_left (fun acc (_, s) -> acc + s.Cache.duplicated) 0 st)

(* --------------------- metrics percentiles -------------------------- *)

(* The histogram's p50/p90/p99 use the same type-7 quantile as
   Rsti_util.Stats, so the JSON summaries agree with the report
   tables. *)
let test_metrics_percentiles () =
  M.reset ();
  let h = M.histogram "test.lat" in
  (* insert out of order; percentile must sort *)
  List.iter (fun i -> M.observe h (float_of_int i)) [ 50; 10; 40; 20; 30 ];
  let checkf what exp got =
    Alcotest.(check (float 1e-9)) what exp got
  in
  checkf "p50 of 10..50" 30.0 (M.percentile h 0.5);
  checkf "p50 matches Stats.quantile"
    (Rsti_util.Stats.quantile 0.5 [ 10.; 20.; 30.; 40.; 50. ])
    (M.percentile h 0.5);
  checkf "p90 matches Stats.quantile"
    (Rsti_util.Stats.quantile 0.9 [ 10.; 20.; 30.; 40.; 50. ])
    (M.percentile h 0.9);
  checkb "empty histogram percentile is nan" true
    (Float.is_nan (M.percentile (M.histogram "test.empty") 0.5));
  (match M.to_json () with
  | J.Obj fields -> (
      match List.assoc "histograms" fields with
      | J.Obj hs -> (
          match List.assoc "test.lat" hs with
          | J.Obj fs ->
              checkb "p50 in document" true
                (List.assoc "p50" fs = J.Float 30.0);
              checkb "p90 in document" true (List.mem_assoc "p90" fs);
              checkb "p99 in document" true (List.mem_assoc "p99" fs)
          | _ -> Alcotest.fail "histogram entry is not an object")
      | _ -> Alcotest.fail "histograms is not an object")
  | _ -> Alcotest.fail "metrics JSON is not an object");
  M.reset ()

(* --------------------------- event log ------------------------------ *)

let jsonl_lines () =
  String.split_on_char '\n' (Observe.Events.to_jsonl ())
  |> List.filter (fun l -> l <> "")

let test_events_jsonl () =
  Observe.Events.reset ();
  (* the sink is not gated on Observe.enabled *)
  Observe.set_enabled false;
  Observe.Events.emit ~cat:"zeta" ~name:"b" [ ("k", J.Int 2) ];
  Observe.Events.emit ~cat:"alpha" ~name:"a" [ ("k", J.Int 1) ];
  checki "two events buffered" 2 (Observe.Events.count ());
  (match jsonl_lines () with
  | header :: rest ->
      checkb "header carries schema and count" true
        (header = {|{"schema":"rsti-events/1","events":2}|});
      checkb "lines lexicographically sorted" true
        (rest = List.sort compare rest);
      List.iter
        (fun l ->
          match J.of_string l with
          | Ok (J.Obj fs) ->
              checkb "cat first" true (fst (List.hd fs) = "cat")
          | _ -> Alcotest.fail "event line does not parse")
        rest
  | [] -> Alcotest.fail "empty document");
  Observe.Events.reset ();
  checki "reset drops the buffer" 0 (Observe.Events.count ())

(* The determinism contract end to end: the full incident collection's
   event log is byte-identical at one worker domain and four. *)
let test_events_identical_across_jobs () =
  let doc jobs =
    Observe.Events.reset ();
    Cache.clear ();
    Scheduler.set_default_jobs jobs;
    let cov = Rsti_attacks.Incident.collect () in
    Scheduler.clear_default_jobs ();
    Rsti_attacks.Incident.emit_events cov;
    let d = Observe.Events.to_jsonl () in
    Observe.Events.reset ();
    d
  in
  let d1 = doc 1 and d4 = doc 4 in
  checkb "event log byte-identical jobs=1 vs 4" true (String.equal d1 d4)

(* ------------------------ incident coverage ------------------------- *)

(* The acceptance invariant: every Detected verdict across the Table-1/
   Table-2 catalogs yields exactly one incident (FPAC traps on the first
   failing auth) that maps into the static attack-surface graph. *)
let test_incident_coverage_invariant () =
  Cache.clear ();
  let module Incident = Rsti_attacks.Incident in
  let module Scenario = Rsti_attacks.Scenario in
  let cov = Incident.collect () in
  checkb "verdict OK" true (Incident.ok cov);
  checki "zero unmapped incidents" 0 cov.Incident.cov_unmapped;
  checki "no detection without a record" 0
    (List.length cov.Incident.cov_missing);
  checki "one incident per detection (FPAC)" cov.Incident.cov_detected
    cov.Incident.cov_incidents;
  List.iter
    (fun (r : Incident.run_row) ->
      checki
        (Printf.sprintf "%s/%s: records match verdict" r.Incident.rr_scenario
           (RT.mechanism_to_string r.Incident.rr_mech))
        (if r.Incident.rr_verdict = Scenario.Detected then 1 else 0)
        (List.length r.Incident.rr_records))
    cov.Incident.cov_runs;
  (* a substitution replay's incident observes the donor's signer and
     maps it to a static class; a raw overwrite observes none *)
  let find sid mech =
    List.find
      (fun (r : Incident.record) ->
        r.Incident.r_scenario = sid && r.Incident.r_mech = mech)
      cov.Incident.cov_records
  in
  let replay = find "sub-same-rsti" RT.Stl in
  checkb "replay incident observes its signer" true
    (replay.Incident.r_incident.Interp.inc_signer <> None);
  checkb "replay signer maps to a donor class" true
    (replay.Incident.r_donor_classes <> []);
  let raw = find "newton-cscfi" RT.Stwc in
  checkb "raw overwrite has no signer" true
    (raw.Incident.r_incident.Interp.inc_signer = None);
  List.iter
    (fun (r : Incident.record) ->
      let inc = r.Incident.r_incident in
      checkb
        (Printf.sprintf "%s/%s: latency attributed" r.Incident.r_scenario
           (RT.mechanism_to_string r.Incident.r_mech))
        true
        (match inc.Interp.inc_latency_cycles with
        | Some l -> l > 0
        | None -> false);
      checkb "window ends with the failing op" true
        (match List.rev inc.Interp.inc_window with
        | op :: _ -> (not op.Interp.op_ok) && op.Interp.op_cycle = inc.Interp.inc_cycle
        | [] -> false))
    cov.Incident.cov_records

(* Latency attribution vs the exact profiler, over random catalog picks:
   the corrupting store and the failing auth are both stamped with the
   machine's cycle/instruction counters, so the latency is their exact
   difference and can never exceed the profiler's totals for the same
   run. *)
let prop_incident_latency_consistent =
  let scenarios =
    Rsti_attacks.Catalog.all
    @ List.map fst Rsti_attacks.Substitution.expected
    @ List.map fst Rsti_attacks.Memory_safety.expected
  in
  let mechs = Rsti_attacks.Incident.mechanisms in
  QCheck.Test.make ~name:"incident: latency consistent with profiler"
    ~count:16
    QCheck.(pair (int_range 0 (List.length scenarios - 1))
              (int_range 0 (List.length mechs - 1)))
    (fun (si, mi) ->
      let sc = List.nth scenarios si and mech = List.nth mechs mi in
      let config = { Pipeline.default with Pipeline.cache = false } in
      let i =
        Pipeline.instrument ~config mech
          (Pipeline.analyze ~config
             (Pipeline.compile ~config
                (Pipeline.source ~file:(sc.Rsti_attacks.Scenario.id ^ ".c")
                   sc.Rsti_attacks.Scenario.program)))
      in
      let o =
        Pipeline.run ~config ~attacks:sc.Rsti_attacks.Scenario.attacks
          ~flight:8 ~profile:true i
      in
      let site_cycles =
        List.fold_left (fun acc s -> acc + s.Interp.s_cycles) 0 o.Interp.sites
      in
      checki "profiled sites partition cycles" o.Interp.cycles site_cycles;
      List.iter
        (fun (inc : Interp.incident) ->
          checkb "incident cycle within run" true
            (inc.Interp.inc_cycle <= o.Interp.cycles);
          checkb "incident instr within run" true
            (inc.Interp.inc_instr <= o.Interp.counts.Interp.instrs);
          (match (inc.Interp.inc_corrupt, inc.Interp.inc_latency_cycles,
                  inc.Interp.inc_latency_instrs) with
          | Some (cc, ci), Some lc, Some li ->
              checki "cycle latency is the exact delta" lc
                (inc.Interp.inc_cycle - cc);
              checki "instr latency is the exact delta" li
                (inc.Interp.inc_instr - ci);
              checkb "latency non-negative" true (lc >= 0 && li >= 0);
              checkb "latency bounded by profiler totals" true
                (lc <= o.Interp.cycles
                && li <= o.Interp.counts.Interp.instrs)
          | None, None, None -> () (* no corruption point: no latency *)
          | _ -> Alcotest.fail "latency fields inconsistent");
          let cycles_mono =
            let rec go last = function
              | [] -> true
              | (op : Interp.pac_op) :: tl ->
                  op.Interp.op_cycle >= last && go op.Interp.op_cycle tl
            in
            go 0 inc.Interp.inc_window
          in
          checkb "flight window cycles non-decreasing" true cycles_mono)
        o.Interp.incidents;
      true)

let tests =
  [
    Alcotest.test_case "span: nesting and records" `Quick test_span_records;
    Alcotest.test_case "span: disabled is a no-op" `Quick test_disabled_noop;
    Alcotest.test_case "metrics: registry roundtrip" `Quick
      test_metrics_registry;
    Alcotest.test_case "trace: well-formed Chrome JSON" `Quick
      test_chrome_trace_wellformed;
    Alcotest.test_case "determinism: telemetry jobs=1 vs 4" `Quick
      test_telemetry_identical_across_jobs;
    Alcotest.test_case "profiler: sites partition totals" `Slow
      test_profiler_partitions_totals;
    Alcotest.test_case "profiler: cache re-pricing exact per-site" `Quick
      test_profile_reprice_exact;
    Alcotest.test_case "cache: per-stage statistics" `Quick
      test_cache_stage_stats;
    Alcotest.test_case "metrics: histogram percentiles" `Quick
      test_metrics_percentiles;
    Alcotest.test_case "events: sorted deterministic JSONL" `Quick
      test_events_jsonl;
    Alcotest.test_case "events: incident log jobs=1 vs 4" `Slow
      test_events_identical_across_jobs;
    Alcotest.test_case "incident: coverage maps every detection" `Slow
      test_incident_coverage_invariant;
    QCheck_alcotest.to_alcotest prop_incident_latency_consistent;
  ]
