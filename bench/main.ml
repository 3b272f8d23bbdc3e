(* The benchmark harness: regenerates every table and figure of the
   paper's evaluation and times each section's wall clock.

   Experiment execution goes through the engine (lib/engine): the staged
   pipeline memoizes compile/analysis artifacts across sections in the
   content-keyed cache, and suite measurements fan out over the domain
   pool (--jobs / RSTI_JOBS). Output is byte-identical for any job count.

   Usage:
     dune exec bench/main.exe                      # everything
     dune exec bench/main.exe -- table1 fig9       # selected sections
     dune exec bench/main.exe -- --jobs 4 fig9     # 4 worker domains
     dune exec bench/main.exe -- list              # section names

   The sections are Rsti_report.Sections.all, the table [rstic report]
   reads too, so both print the same text.

   Every run also writes a machine-readable summary (BENCH_fig9.json by
   default): per-benchmark overheads and geomeans when the perf sections
   ran, plus wall-clock per section, the job count, and artifact-cache
   statistics — the perf trajectory tracked across PRs. The telemetry
   counter registry lands next to it (BENCH_metrics.json, --metrics to
   move); --trace PATH additionally records spans and writes a Chrome
   trace-event document loadable in Perfetto. *)

module Tab = Rsti_util.Tab
module J = Rsti_util.Json
module Sections = Rsti_report.Sections

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
    List.iter (fun (s : Sections.t) -> print_endline s.name) Sections.all;
    exit 0
  end;
  (match
     List.filter
       (fun r ->
         not (List.exists (fun (s : Sections.t) -> s.name = r) Sections.all))
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
    Sections.all;
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
