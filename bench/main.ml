(* The benchmark harness: regenerates every table and figure of the
   paper's evaluation and times the machinery behind each with Bechamel
   (one Test.make per table/figure, all in this one executable).

   Experiment execution goes through the engine (lib/engine): the staged
   pipeline memoizes compile/analysis artifacts across sections in the
   content-keyed cache, and suite measurements fan out over the domain
   pool (--jobs / RSTI_JOBS). Output is byte-identical for any job count.

   Usage:
     dune exec bench/main.exe                      # everything
     dune exec bench/main.exe -- table1 fig9       # selected sections
     dune exec bench/main.exe -- --jobs 4 fig9     # 4 worker domains
     dune exec bench/main.exe -- list              # section names

   Sections: table1 table2 table3 fig9 fig10 pp-census parts correlation
             ablation-pac ablation-merge ablation-stl ablation-ce
             ablation-pac-width backend elide elide-precision
             elide-precision-cs validate attack-surface detection-latency
             micro

   Every run also writes a machine-readable summary (BENCH_fig9.json by
   default): per-benchmark overheads and geomeans when the perf sections
   ran, plus wall-clock per section, the job count, and artifact-cache
   statistics — the perf trajectory tracked across PRs. The telemetry
   counter registry lands next to it (BENCH_metrics.json, --metrics to
   move); --trace PATH additionally records spans and writes a Chrome
   trace-event document loadable in Perfetto. *)

module RT = Rsti_sti.Rsti_type
module Tab = Rsti_util.Tab
module J = Rsti_util.Json
module Perf = Rsti_report.Perf

let section title = print_endline (Tab.section title)

(* Perf data is shared between fig9/fig10/correlation; collected lazily,
   fanned out over the engine's domain pool. *)
let perf = lazy (Perf.collect ())

(* Captured when the elide-precision-cs section runs so json_summary can
   embed the per-mode safe counts and wall-clocks. *)
let cs_rows : Rsti_report.Ablation.cs_row list ref = ref []

(* Captured when the attack-surface section runs: the per-workload class
   metrics and the static/dynamic cross-validation summary. *)
let as_rows : Rsti_report.Attack_surface.row list ref = ref []
let as_crossval : Rsti_attacks.Crossval.summary option ref = ref None

(* Captured when the detection-latency section runs: the incident
   coverage map behind the latency histograms and the event log. *)
let inc_cov : Rsti_attacks.Incident.coverage option ref = ref None

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks: one Test.make per reproduced table or
   figure, timing the machinery that regenerates it, plus primitive
   micro-benchmarks for the PA substrate.                              *)
(* ------------------------------------------------------------------ *)

let bechamel_tests () =
  let open Bechamel in
  let module Pipeline = Rsti_engine.Pipeline in
  (* primitives *)
  let pac_ctx = Rsti_pa.Pac.make ~seed:7L () in
  let qkey = Rsti_pa.Qarma.key_of_rng (Rsti_util.Splitmix.create 5L) in
  let counter = ref 0L in
  let t_qarma =
    Test.make ~name:"micro: qarma-64 encrypt"
      (Staged.stage (fun () ->
           counter := Int64.add !counter 1L;
           ignore (Rsti_pa.Qarma.encrypt ~key:qkey ~tweak:!counter 0xDEADBEEFL)))
  in
  let t_pac =
    Test.make ~name:"micro: pac sign+auth (uncached modifier)"
      (Staged.stage (fun () ->
           counter := Int64.add !counter 1L;
           let s =
             Rsti_pa.Pac.sign pac_ctx ~key:Rsti_pa.Key.DA ~modifier:!counter
               0x2000_0040L
           in
           ignore (Rsti_pa.Pac.auth pac_ctx ~key:Rsti_pa.Key.DA ~modifier:!counter s)))
  in
  (* Table 1: one end-to-end attack scenario (compile+instrument+run) *)
  let t_table1 =
    Test.make ~name:"table1: ghttpd scenario under STWC"
      (Staged.stage (fun () ->
           ignore (Rsti_attacks.Scenario.run Rsti_attacks.Catalog.ghttpd RT.Stwc)))
  in
  (* Table 2: one substitution scenario *)
  let t_table2 =
    Test.make ~name:"table2: same-RSTI replay under STL"
      (Staged.stage (fun () ->
           ignore (Rsti_attacks.Scenario.run Rsti_attacks.Substitution.same_rsti_replay RT.Stl)))
  in
  (* Table 3: equivalence-class analysis of one SPEC kernel *)
  let xalan = List.nth Rsti_workloads.Spec2006.all 17 in
  let t_table3 =
    Test.make ~name:"table3: xalancbmk EC analysis"
      (Staged.stage (fun () ->
           ignore (Rsti_sti.Analysis.stats (Rsti_workloads.Run.analyze_workload xalan))))
  in
  (* Figure 9: one workload measured under one mechanism *)
  let nginx = Rsti_workloads.Nginx.workload in
  let t_fig9 =
    Test.make ~name:"fig9: nginx overhead measurement (STWC)"
      (Staged.stage (fun () ->
           ignore (Rsti_workloads.Run.measure nginx [ RT.Stwc ])))
  in
  (* Figure 10: distribution summary over a suite's overheads *)
  let overheads = List.init 18 (fun i -> float_of_int (i * i mod 23)) in
  let t_fig10 =
    Test.make ~name:"fig10: boxplot summary"
      (Staged.stage (fun () -> ignore (Rsti_util.Stats.boxplot overheads)))
  in
  (* 6.2.2: pointer-to-pointer census *)
  let pp_w = List.hd Rsti_workloads.Spec2006.all in
  let t_census =
    Test.make ~name:"pp-census: perlbench kernel scan"
      (Staged.stage (fun () ->
           ignore
             (Rsti_sti.Analysis.pp_census (Rsti_workloads.Run.analyze_workload pp_w))))
  in
  (* the instrumentation pass itself, through the staged pipeline with
     the cache off (timing the pass, not the memo table) *)
  let cold = { Pipeline.default with Pipeline.cache = false } in
  let analyzed =
    lazy
      (Pipeline.analyze ~config:cold
         (Pipeline.compile ~config:cold
            (Pipeline.source ~file:"b.c" pp_w.Rsti_workloads.Workload.source)))
  in
  let t_pass =
    Test.make ~name:"pass: instrument perlbench kernel (STWC)"
      (Staged.stage (fun () ->
           ignore (Pipeline.instrument ~config:cold RT.Stwc (Lazy.force analyzed))))
  in
  Test.make_grouped ~name:"rsti"
    [ t_qarma; t_pac; t_table1; t_table2; t_table3; t_fig9; t_fig10; t_census; t_pass ]

let run_bechamel () =
  let open Bechamel in
  let instances = [ Toolkit.Instance.monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.25) ~kde:(Some 10) () in
  let raw = Benchmark.all cfg instances (bechamel_tests ()) in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  print_endline "Bechamel micro-benchmarks (monotonic clock, ns per run):\n";
  let rows = ref [] in
  Hashtbl.iter
    (fun name ols_result ->
      let ns =
        match Analyze.OLS.estimates ols_result with
        | Some (e :: _) -> Printf.sprintf "%.0f" e
        | _ -> "-"
      in
      rows := [ name; ns ] :: !rows)
    results;
  let rows = List.sort compare !rows in
  print_endline (Tab.render ~header:[ "benchmark"; "ns/run" ] rows)

(* ------------------------------------------------------------------ *)
(* Sections                                                            *)
(* ------------------------------------------------------------------ *)

let sections : (string * string * (unit -> unit)) list =
  [
    ( "table1", "Table 1: attack catalog",
      fun () -> print_endline (Rsti_report.Security.table1 ()) );
    ( "table2", "Table 2: substitution matrix",
      fun () -> print_endline (Rsti_report.Security.table2 ()) );
    ( "table3", "Table 3: equivalence classes",
      fun () -> print_endline (Rsti_report.Figures.table3 ()) );
    ( "fig9", "Figure 9: overheads",
      fun () -> print_endline (Rsti_report.Figures.fig9 (Lazy.force perf)) );
    ( "fig10", "Figure 10: distributions",
      fun () -> print_endline (Rsti_report.Figures.fig10 (Lazy.force perf)) );
    ( "pp-census", "6.2.2: pointer-to-pointer census",
      fun () -> print_endline (Rsti_report.Figures.pp_census ()) );
    ( "parts", "6.3.2: PARTS comparison (nbench)",
      fun () -> print_endline (Rsti_report.Figures.parts_comparison ()) );
    ( "correlation", "6.3.2: overhead/instrumentation correlation",
      fun () -> print_endline (Rsti_report.Figures.correlation (Lazy.force perf)) );
    ( "ablation-pac", "Ablation: PA cost sweep",
      fun () -> print_endline (Rsti_report.Ablation.pac_cost_sweep ()) );
    ( "ablation-merge", "Ablation: STC merging",
      fun () -> print_endline (Rsti_report.Ablation.merge_effect ()) );
    ( "ablation-stl", "Ablation: STL argument re-signing",
      fun () -> print_endline (Rsti_report.Ablation.stl_argument_cost ()) );
    ( "ablation-ce", "Ablation: CE width",
      fun () -> print_endline (Rsti_report.Ablation.ce_width ()) );
    ( "ablation-pac-width", "Ablation: PAC width vs brute force",
      fun () -> print_endline (Rsti_report.Ablation.pac_brute_force ()) );
    ( "backend", "Extension: shadow-MAC backend (section 7)",
      fun () -> print_endline (Rsti_report.Ablation.backend_comparison ()) );
    ( "elide", "Elision: instrumented-site reduction and overhead delta",
      fun () ->
        print_endline (Rsti_report.Ablation.elision ());
        section "Elision: safety invariant (Table 1 under elision)";
        print_endline (Rsti_report.Security.elide_safety ()) );
    ( "elide-precision", "Elision precision: syntactic vs points-to",
      fun () ->
        print_endline (Rsti_report.Ablation.elide_precision ());
        section "Elision: safety invariant (points-to precision)";
        print_endline
          (Rsti_report.Security.elide_safety
             ~elision:Rsti_staticcheck.Elide.With_points_to ()) );
    ( "elide-precision-cs", "Elision precision: context-sensitive ladder",
      fun () ->
        let rows = Rsti_report.Ablation.elide_precision_cs_data () in
        cs_rows := rows;
        print_endline (Rsti_report.Ablation.render_elide_precision_cs rows) );
    ( "validate", "PAC-typestate translation validation",
      fun () -> print_endline (Rsti_report.Security.validation ()) );
    ( "attack-surface", "Static substitution attack surface + cross-validation",
      fun () ->
        let rows = Rsti_report.Attack_surface.collect () in
        as_rows := rows;
        print_endline (Rsti_report.Attack_surface.render rows);
        section "Static/dynamic cross-validation";
        let s = Rsti_report.Attack_surface.crossval_summary () in
        as_crossval := Some s;
        print_endline (Rsti_report.Attack_surface.render_crossval s) );
    ( "detection-latency",
      "Security-event forensics: detection latency + coverage map",
      fun () ->
        let cov = Rsti_attacks.Incident.collect () in
        inc_cov := Some cov;
        Rsti_attacks.Incident.emit_events cov;
        print_endline (Rsti_report.Incidents.render cov) );
    ("micro", "Bechamel micro-benchmarks", run_bechamel);
  ]

(* ------------------------------------------------------------------ *)
(* Machine-readable summary (BENCH_fig9.json)                          *)
(* ------------------------------------------------------------------ *)

let mech_slug = function
  | RT.Stwc -> "stwc"
  | RT.Stc -> "stc"
  | RT.Stl -> "stl"
  | RT.Parts -> "parts"
  | RT.Nop -> "none"

let json_summary ~jobs ~wall_clock ~timed =
  let cache = Rsti_engine.Cache.stats () in
  let perf_fields =
    if not (Lazy.is_val perf) then []
    else begin
      let p = Lazy.force perf in
      let benchmarks =
        List.map
          (fun (m : Rsti_workloads.Run.measurement) ->
            J.Obj
              [
                ("name", J.Str m.workload.Rsti_workloads.Workload.name);
                ( "suite",
                  J.Str
                    (Rsti_workloads.Workload.suite_to_string
                       m.workload.Rsti_workloads.Workload.suite) );
                ("mech", J.Str (mech_slug m.mech));
                ("base_cycles", J.Int m.base_cycles);
                ("mech_cycles", J.Int m.mech_cycles);
                ("overhead_pct", J.Float m.overhead_pct);
              ])
          (Perf.all p)
      in
      let geomean ms mech =
        Rsti_util.Stats.geomean_overhead (Perf.overheads (Perf.of_mech ms mech))
      in
      let geomeans =
        List.concat_map
          (fun (label, ms) ->
            List.map
              (fun mech ->
                J.Obj
                  [
                    ("suite", J.Str label);
                    ("mech", J.Str (mech_slug mech));
                    ("overhead_pct", J.Float (geomean ms mech));
                  ])
              RT.all_mechanisms)
          [
            ("SPEC2006", p.Perf.spec2006);
            ("SPEC2017", p.Perf.spec2017);
            ("nbench", p.Perf.nbench);
            ("CPython", p.Perf.pytorch);
            ("NGINX", p.Perf.nginx);
            ("all", Perf.all p);
          ]
      in
      [ ("benchmarks", J.List benchmarks); ("geomeans", J.List geomeans) ]
    end
  in
  let cs_fields =
    match !cs_rows with
    | [] -> []
    | rows ->
        [
          ( "elide-precision-cs",
            J.List
              (List.map
                 (fun (r : Rsti_report.Ablation.cs_row) ->
                   J.Obj
                     [
                       ("name", J.Str r.cs_name);
                       ("candidates", J.Int r.cs_candidates);
                       ("safe_syntactic", J.Int r.cs_safe_syn);
                       ("safe_points_to", J.Int r.cs_safe_pt);
                       ("safe_cloning_k2", J.Int r.cs_safe_cs);
                       ("seconds_points_to", J.Float r.cs_seconds_pt);
                       ("seconds_cloning_k2", J.Float r.cs_seconds_cs);
                     ])
                 rows) );
        ]
  in
  let as_fields =
    match !as_rows with
    | [] -> []
    | rows ->
        let mode_slug = function
          | None -> "oracle"
          | Some m -> Rsti_dataflow.Points_to.mode_to_string m
        in
        let row (r : Rsti_report.Attack_surface.row) =
          let m = r.Rsti_report.Attack_surface.as_metrics in
          J.Obj
            [
              ("workload", J.Str r.Rsti_report.Attack_surface.as_workload);
              ("mech", J.Str (mech_slug r.Rsti_report.Attack_surface.as_mech));
              ("mode", J.Str (mode_slug r.Rsti_report.Attack_surface.as_mode));
              ("candidates", J.Int m.Rsti_dataflow.Equiv.m_candidates);
              ("classes", J.Int m.Rsti_dataflow.Equiv.m_classes);
              ("singletons", J.Int m.Rsti_dataflow.Equiv.m_singletons);
              ("largest_class", J.Int m.Rsti_dataflow.Equiv.m_largest);
              ("replay_edges", J.Int m.Rsti_dataflow.Equiv.m_replay_edges);
              ("feasible_edges", J.Int m.Rsti_dataflow.Equiv.m_feasible_edges);
            ]
        in
        let crossval =
          match !as_crossval with
          | None -> []
          | Some s ->
              [
                ( "crossval",
                  J.Obj
                    [
                      ("checks", J.Int s.Rsti_attacks.Crossval.s_checked);
                      ( "disagreements",
                        J.Int s.Rsti_attacks.Crossval.s_disagreements );
                      ("skipped", J.Int s.Rsti_attacks.Crossval.s_skipped);
                    ] );
              ]
        in
        [
          ( "attack-surface",
            J.Obj
              ([
                 ("rows", J.List (List.map row rows));
                 ( "monotone_refinement",
                   J.Bool
                     (Rsti_report.Attack_surface.class_refinement_ok rows
                     && Rsti_report.Attack_surface.feasible_refinement_ok rows)
                 );
               ]
              @ crossval) );
        ]
  in
  let inc_fields =
    match !inc_cov with
    | None -> []
    | Some cov ->
        let module Incident = Rsti_attacks.Incident in
        let hist samples =
          let q p =
            match samples with
            | [] -> J.Null
            | _ ->
                J.Float
                  (Rsti_util.Stats.quantile p
                     (List.map float_of_int samples))
          in
          J.Obj
            [
              ("count", J.Int (List.length samples));
              ( "min",
                match samples with
                | [] -> J.Null
                | x :: _ -> J.Int x );
              ( "max",
                match List.rev samples with
                | [] -> J.Null
                | x :: _ -> J.Int x );
              ("p50", q 0.5);
              ("p90", q 0.9);
              ("p99", q 0.99);
            ]
        in
        let mech_obj (mc : Incident.mech_cov) =
          J.Obj
            [
              ("mech", J.Str (mech_slug mc.Incident.mc_mech));
              ("runs", J.Int mc.Incident.mc_runs);
              ("detected", J.Int mc.Incident.mc_detected);
              ("incidents", J.Int mc.Incident.mc_incidents);
              ("mapped", J.Int mc.Incident.mc_mapped);
              ("replays", J.Int mc.Incident.mc_replays);
              ("raw_overwrites", J.Int mc.Incident.mc_raw);
              ("latency_cycles", hist mc.Incident.mc_latency_cycles);
              ("latency_instrs", hist mc.Incident.mc_latency_instrs);
              ( "static_replay_edges",
                J.Int mc.Incident.mc_static_replay_edges );
              ( "static_feasible_edges",
                J.Int mc.Incident.mc_static_feasible_edges );
              ("replayable_total", J.Int mc.Incident.mc_replayable_total);
              ( "replayable_exercised",
                J.Int mc.Incident.mc_replayable_exercised );
              ("nonedges_checked", J.Int mc.Incident.mc_nonedges_checked);
            ]
        in
        [
          ( "detection-latency",
            J.Obj
              [
                ("flight", J.Int cov.Incident.cov_flight);
                ("detected", J.Int cov.Incident.cov_detected);
                ("incidents", J.Int cov.Incident.cov_incidents);
                ("unmapped", J.Int cov.Incident.cov_unmapped);
                ( "missing",
                  J.Int (List.length cov.Incident.cov_missing) );
                ( "verdict",
                  J.Str (if Incident.ok cov then "OK" else "FAIL") );
                ( "mechanisms",
                  J.List (List.map mech_obj cov.Incident.cov_mechs) );
              ] );
        ]
  in
  J.Obj
    ([
       ("schema", J.Str "rsti-bench-fig9/1");
       ("jobs", J.Int jobs);
       ("wall_clock_s", J.Float wall_clock);
       ( "sections",
         J.List
           (List.map
              (fun (name, seconds) ->
                J.Obj [ ("name", J.Str name); ("seconds", J.Float seconds) ])
              (List.rev timed)) );
       ( "cache",
         J.Obj
           [
             ("hits", J.Int cache.Rsti_engine.Cache.hits);
             ("misses", J.Int cache.Rsti_engine.Cache.misses);
             ("duplicated", J.Int cache.Rsti_engine.Cache.duplicated);
           ] );
     ]
    @ cs_fields @ as_fields @ inc_fields @ perf_fields)

(* ------------------------------------------------------------------ *)

open Cmdliner

let json_path_arg =
  Arg.(
    value
    & opt string "BENCH_fig9.json"
    & info [ "json" ] ~docv:"PATH"
        ~doc:"Where to write the machine-readable summary.")

let trace_path_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"PATH"
        ~doc:
          "Record spans (sections, pipeline stages, scheduler tasks, \
           cache lookups, dataflow fixpoints) and write a Chrome \
           trace-event JSON document here. Span recording is off unless \
           this flag is given, so the default run's wall-clock is \
           unaffected.")

let metrics_path_arg =
  Arg.(
    value
    & opt string "BENCH_metrics.json"
    & info [ "metrics" ] ~docv:"PATH"
        ~doc:
          "Where to write the telemetry counter registry (always \
           written; the counters are always-on).")

let events_path_arg =
  Arg.(
    value
    & opt string "BENCH_events.jsonl"
    & info [ "events" ] ~docv:"PATH"
        ~doc:
          "Where to write the rsti-events/1 security-event log (always \
           written; populated by the $(b,detection-latency) section, a \
           header-only document otherwise). One compact JSON object per \
           line, lexicographically sorted — byte-identical at any \
           $(b,--jobs).")

let sections_arg =
  Arg.(
    value
    & pos_all string []
    & info [] ~docv:"SECTION"
        ~doc:
          "Sections to run (default: all). $(b,list) prints the section \
           names and exits.")

let main () json_path trace_path metrics_path events_path requested =
  if trace_path <> None then Rsti_observe.Observe.set_enabled true;
  if requested = [ "list" ] then begin
    List.iter (fun (name, _, _) -> print_endline name) sections;
    exit 0
  end;
  (match
     List.filter (fun s -> not (List.exists (fun (n, _, _) -> n = s) sections)) requested
   with
  | [] -> ()
  | unknown ->
      Printf.eprintf "unknown section(s): %s\n" (String.concat " " unknown);
      exit 2);
  let want name = requested = [] || List.mem name requested in
  let t_start = Unix.gettimeofday () in
  let timed = ref [] in
  List.iter
    (fun (name, title, f) ->
      if want name then begin
        section title;
        let t0 = Unix.gettimeofday () in
        Rsti_observe.Observe.Span.with_ ("bench." ^ name) f;
        timed := (name, Unix.gettimeofday () -. t0) :: !timed
      end)
    sections;
  let wall_clock = Unix.gettimeofday () -. t_start in
  let jobs = Rsti_engine_cli.resolved_jobs () in
  let oc = open_out json_path in
  output_string oc (J.to_string (json_summary ~jobs ~wall_clock ~timed:!timed));
  output_char oc '\n';
  close_out oc;
  Option.iter Rsti_engine_cli.write_trace trace_path;
  Rsti_engine_cli.write_metrics metrics_path;
  Rsti_engine_cli.write_events events_path;
  Printf.printf "\n[bench] %d section(s) in %.2f s at %d job(s); summary: %s\n"
    (List.length !timed) wall_clock jobs json_path

let () =
  let doc = "RSTI paper-reproduction benchmark harness" in
  let info = Cmd.info "bench" ~doc in
  exit
    (Cmd.eval
       (Cmd.v info
          Term.(
            const main $ Rsti_engine_cli.setup_jobs_term $ json_path_arg
            $ trace_path_arg $ metrics_path_arg $ events_path_arg
            $ sections_arg)))
