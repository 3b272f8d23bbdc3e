open Cmdliner

let jobs_term =
  Arg.(
    value
    & opt (some int) None
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Number of worker domains for suite-level fan-out. Defaults to \
           $(b,RSTI_JOBS), then the machine's recommended domain count. \
           Results are deterministic: output is byte-identical for any N.")

let apply = function
  | Some n -> Rsti_engine.Scheduler.set_default_jobs n
  | None -> ()

let setup_jobs_term = Term.(const apply $ jobs_term)

let resolved_jobs () = Rsti_engine.Scheduler.default_jobs ()

let pt_mode_conv =
  let parse s =
    match Rsti_dataflow.Points_to.mode_of_string s with
    | Some m -> Ok m
    | None ->
        Error
          (`Msg
            (Printf.sprintf "unknown points-to mode %S (insensitive|cloning[:K])"
               s))
  in
  let print fmt m =
    Format.pp_print_string fmt (Rsti_dataflow.Points_to.mode_to_string m)
  in
  Arg.conv (parse, print)

let points_to_term ?(bare = Rsti_dataflow.Points_to.Insensitive) ~doc () =
  Arg.(
    value
    & opt ~vopt:(Some bare) (some pt_mode_conv) None
    & info [ "points-to" ] ~docv:"MODE" ~doc)

let trace_term =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Record spans for the whole invocation and write a Chrome \
           trace-event JSON document to $(docv) (loadable in Perfetto or \
           chrome://tracing). Enables span recording.")

let metrics_term =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics" ] ~docv:"FILE"
        ~doc:
          "Write the telemetry counter/gauge/histogram registry as one \
           JSON document to $(docv) on exit.")

type observe = string option * string option

let setup_observe trace metrics =
  if trace <> None || metrics <> None then
    Rsti_observe.Observe.set_enabled true;
  (trace, metrics)

let observe_term = Term.(const setup_observe $ trace_term $ metrics_term)

let write_file path contents =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc contents)

let events_term =
  Arg.(
    value
    & opt (some string) None
    & info [ "events" ] ~docv:"FILE"
        ~doc:
          "Write the structured security-event log (schema \
           $(b,rsti-events/1): one compact JSON object per line, \
           lexicographically sorted, byte-identical at any $(b,--jobs)) \
           to $(docv) on exit. Incident events carry the failing PAC \
           site, expected vs observed signer, detection latency, and \
           the static-class mapping.")

let write_events path =
  write_file path (Rsti_observe.Observe.Events.to_jsonl ())

let write_trace path =
  write_file path
    (Rsti_util.Json.to_string ~indent:false
       (Rsti_observe.Observe.Span.chrome_trace ())
    ^ "\n")

let write_metrics path =
  write_file path
    (Rsti_util.Json.to_string
       (Rsti_observe.Observe.Metrics.to_json ())
    ^ "\n")

let finish_observe (trace, metrics) =
  Option.iter write_trace trace;
  Option.iter write_metrics metrics
