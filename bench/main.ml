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

   The sections are Rsti_report.Sections.all (the table [rstic report]
   reads too, so both print the same text) followed by [micro], the
   Bechamel micro-benchmarks that only this harness runs.

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
module Sections = Rsti_report.Sections

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
  "Bechamel micro-benchmarks (monotonic clock, ns per run):\n\n"
  ^ Tab.render ~header:[ "benchmark"; "ns/run" ] rows

let sections =
  Sections.all
  @ [
      {
        Sections.name = "micro";
        title = "Bechamel micro-benchmarks";
        run = (fun () -> (run_bechamel (), []));
      };
    ]

(* The machine-readable summary (BENCH_fig9.json): run facts, then the
   blocks the sections produced, then the perf suite's. *)
let json_summary ~jobs ~wall_clock ~timed ~blocks =
  let cache = Rsti_engine.Cache.stats () in
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
    @ blocks @ Sections.perf_json ())

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
    List.iter (fun (s : Sections.t) -> print_endline s.name) sections;
    exit 0
  end;
  (match
     List.filter
       (fun r -> not (List.exists (fun (s : Sections.t) -> s.name = r) sections))
       requested
   with
  | [] -> ()
  | unknown ->
      Printf.eprintf "unknown section(s): %s\n" (String.concat " " unknown);
      exit 2);
  let want name = requested = [] || List.mem name requested in
  let t_start = Unix.gettimeofday () in
  let timed = ref [] and blocks = ref [] in
  List.iter
    (fun (s : Sections.t) ->
      if want s.name then begin
        print_endline (Tab.section s.title);
        let t0 = Unix.gettimeofday () in
        Rsti_observe.Observe.Span.with_ ("bench." ^ s.name) (fun () ->
            let text, produced = s.run () in
            print_endline text;
            blocks := !blocks @ produced);
        timed := (s.name, Unix.gettimeofday () -. t0) :: !timed
      end)
    sections;
  let wall_clock = Unix.gettimeofday () -. t_start in
  let jobs = Rsti_engine_cli.resolved_jobs () in
  let oc = open_out json_path in
  output_string oc
    (J.to_string (json_summary ~jobs ~wall_clock ~timed:!timed ~blocks:!blocks));
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
