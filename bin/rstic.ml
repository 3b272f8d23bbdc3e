(* rstic — the RSTI "compiler driver" command-line tool.

   All compilation goes through the engine's staged pipeline
   (lib/engine): source -> compiled -> analyzed -> instrumented -> run,
   with content-keyed artifact caching. run/analyze/lint/report share
   the engine's --jobs flag; lint fans a directory's files out over the
   domain pool.

   Subcommands:
     run       compile a MiniC file, instrument it, execute it
               (--elide=off|syntactic|points-to selects proof-based
               instrumentation elision; --validate runs the
               PAC-typestate translation validator on the result;
               --profile prints an exact hot-site cycle table;
               --trace/--metrics dump telemetry JSON)
     emit-ir   print the (optionally instrumented) IR
     analyze   print the STI analysis: pointer variables, RSTI-types,
               equivalence-class statistics, pointer-to-pointer census
               (--format=json for machine-readable output; --points-to
               adds the Andersen confinement verdicts; --attack-surface
               switches to the substitution-attack-surface analysis:
               modifier equivalence classes and the gadget graph)
     lint      run the whole-program static STI checker over a file or
               a directory of MiniC sources (--format=text|json|sarif);
               --attack-surface adds the modifier-collision and
               feasible-substitution rules; exits 1 when any
               error-severity finding is reported
     report    regenerate the paper's tables and figures: every report
               (the bench) or the named ones (report table1 table2 is
               the attack catalog); --json/--metrics/--events/--trace
               write the bench documents *)

open Cmdliner

module RT = Rsti_sti.Rsti_type
module Interp = Rsti_machine.Interp
module Pipeline = Rsti_engine.Pipeline
module Scheduler = Rsti_engine.Scheduler
module Elide = Rsti_staticcheck.Elide
module Points_to = Rsti_dataflow.Points_to
module Observe = Rsti_observe.Observe
module Json = Rsti_util.Json

(* [--jobs N]: evaluating the term installs N as the engine's job count;
   without the flag the scheduler keeps its own default. *)
let jobs_term =
  let jobs =
    Arg.(
      value
      & opt (some int) None
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:
            "Number of worker domains for suite-level fan-out. Defaults \
             to $(b,RSTI_JOBS), then the machine's recommended domain \
             count. Results are deterministic: output is byte-identical \
             for any N.")
  in
  Term.(const (Option.iter Scheduler.set_default_jobs) $ jobs)

(* The positional FILE, read with [file], and [--points-to[=MODE]], the
   bare flag meaning [bare]. An option whose value is optional takes the
   next word as its value, so [--points-to FILE] leaves no positional
   argument: the word is then the file, and the mode the bare flag's. *)
let file_and_points_to ?(bare = Points_to.Insensitive) ~file ~file_doc ~doc () =
  let path = Arg.(value & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:file_doc) in
  let word = Arg.conv ((fun s -> Ok (Some s)), fun fmt _ -> Format.pp_print_string fmt "MODE") in
  let pt =
    Arg.(
      value
      & opt ~vopt:(Some None) (some word) None
      & info [ "points-to" ] ~docv:"MODE" ~doc)
  in
  let resolve path pt =
    match (path, pt) with
    | Some f, None -> `Ok (f, None)
    | Some f, Some None -> `Ok (f, Some bare)
    | Some f, Some (Some s) -> (
        match Points_to.mode_of_string s with
        | Some m -> `Ok (f, Some m)
        | None ->
            `Error
              ( true,
                Printf.sprintf
                  "option '--points-to': unknown points-to mode %S \
                   (insensitive|cloning[:K])"
                  s ))
    | None, Some (Some w) -> (
        match Arg.conv_parser file w with
        | Ok f -> `Ok (f, Some bare)
        | Error (`Msg e) -> `Error (true, "FILE argument: " ^ e))
    | None, (None | Some None) -> `Error (true, "required argument FILE is missing")
  in
  Term.(ret (const resolve $ path $ pt))

(* An output file. The command line is parsed before any work runs, so a
   path that cannot be written fails at once, as a usage error naming
   it, instead of when the file is written at the end. *)
let out_file =
  let parse path =
    let dir = Filename.dirname path in
    let fail why = Error (`Msg (Printf.sprintf "cannot write %s: %s" path why)) in
    if Sys.file_exists path && Sys.is_directory path then fail "it is a directory"
    else if not (Sys.file_exists dir && Sys.is_directory dir) then
      fail ("no directory " ^ dir)
    else
      match Unix.access (if Sys.file_exists path then path else dir) [ Unix.W_OK ] with
      | () -> Ok path
      | exception Unix.Unix_error (e, _, _) -> fail (Unix.error_message e)
  in
  Arg.conv (parse, Format.pp_print_string)

type telemetry = {
  trace : string option;
  metrics : string option;
  events : string option;
}

(* [--trace], [--metrics], [--events]: each names a file written by
   {!write_telemetry} at exit. Evaluating the term turns span recording
   on when [--trace] is given; counters and events are always kept. *)
let telemetry_term =
  let file name doc =
    Arg.(value & opt (some out_file) None & info [ name ] ~docv:"FILE" ~doc)
  in
  let setup trace metrics events =
    if trace <> None then Observe.set_enabled true;
    { trace; metrics; events }
  in
  Term.(
    const setup
    $ file "trace"
        "Record spans (report sections, pipeline stages, scheduler tasks, \
         cache lookups, dataflow fixpoints) and write them to $(docv) as \
         a Chrome trace-event JSON document (loadable in Perfetto or \
         chrome://tracing). Span recording is off without this flag."
    $ file "metrics"
        "Write the telemetry counter/gauge/histogram registry \
         ($(b,rsti-metrics/1)) to $(docv)."
    $ file "events"
        "Write the security-event log ($(b,rsti-events/1): a header line, \
         then one compact JSON object per event, lexicographically \
         sorted, byte-identical at any $(b,--jobs)) to $(docv). Incident \
         events carry the failing PAC site, expected vs observed signer, \
         detection latency and the static-class mapping.")

let write_file path contents =
  Out_channel.with_open_bin path (fun oc -> output_string oc contents)

let write_telemetry tel =
  Option.iter
    (fun path ->
      write_file path
        (Json.to_string ~indent:false (Observe.Span.chrome_trace ()) ^ "\n"))
    tel.trace;
  Option.iter
    (fun path ->
      write_file path (Json.to_string (Observe.Metrics.to_json ()) ^ "\n"))
    tel.metrics;
  Option.iter
    (fun path -> write_file path (Observe.Events.to_jsonl ()))
    tel.events

let mech_conv =
  let parse s =
    match
      List.find_opt
        (fun m -> RT.mechanism_slug m = s)
        [ RT.Stwc; RT.Stc; RT.Stl; RT.Parts; RT.Nop ]
    with
    | Some m -> Ok m
    | None ->
        Error (`Msg (Printf.sprintf "unknown mechanism %S (stwc|stc|stl|parts|none)" s))
  in
  let print fmt m = Format.pp_print_string fmt (RT.mechanism_slug m) in
  Arg.conv (parse, print)

let mech_arg =
  Arg.(
    value
    & opt mech_conv RT.Stwc
    & info [ "m"; "mechanism" ] ~docv:"MECH"
        ~doc:"RSTI mechanism: stwc (default), stc, stl, parts, none.")

let file_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"MiniC source file.")

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let with_frontend path f =
  try f (read_file path)
  with
  | Rsti_minic.Lexer.Error (msg, loc) ->
      Printf.eprintf "%s: lexical error: %s\n" (Rsti_minic.Loc.to_string loc) msg;
      exit 1
  | Rsti_minic.Parser.Error (msg, loc) ->
      Printf.eprintf "%s: syntax error: %s\n" (Rsti_minic.Loc.to_string loc) msg;
      exit 1
  | Rsti_minic.Typecheck.Error (msg, loc) ->
      Printf.eprintf "%s: type error: %s\n" (Rsti_minic.Loc.to_string loc) msg;
      exit 1

(* source -> analyzed -> instrumented(mech), frontend errors reported *)
let analyzed_of_path ?(config = Pipeline.default) path =
  with_frontend path (fun src ->
      Pipeline.analyze ~config
        (Pipeline.compile ~config (Pipeline.source ~file:path src)))

let elide_conv =
  let parse s =
    match Elide.mode_of_string s with
    | Some m -> Ok m
    | None ->
        Error
          (`Msg
            (Printf.sprintf
               "unknown elision mode %S (off|syntactic|points-to|context[:K])"
               s))
  in
  let print fmt m = Format.pp_print_string fmt (Elide.mode_to_string m) in
  Arg.conv (parse, print)

let compile_instrumented ?(elision = Elide.Off) ?(validate = false) path mech =
  let config = { Pipeline.default with Pipeline.elision; validate } in
  let a = analyzed_of_path ~config path in
  try (a, Pipeline.instrument ~config mech a)
  with Pipeline.Validation_failed report ->
    Printf.eprintf "rstic: translation validation failed:\n%s"
      (Rsti_dataflow.Validate.report_to_string report);
    exit 1

(* ------------------------------------------------------------------ *)

let run_cmd =
  let doc = "Compile, instrument, and execute a MiniC program." in
  let stats =
    Arg.(value & flag & info [ "stats" ] ~doc:"Print cycle and PAC statistics.")
  in
  let profile_flag =
    Arg.(
      value & flag
      & info [ "profile" ]
          ~doc:
            "Attribute interpreter cycles and PAC charges to (function, \
             line) sites and print a hot-site table after execution. \
             Exact, not sampled; the profiled outcome is memoized \
             separately from the unprofiled one.")
  in
  let elide_flag =
    Arg.(
      value
      & opt elide_conv Elide.Off
      & info [ "elide" ] ~docv:"MODE"
          ~doc:
            "Elide sign/auth pairs the static checker proves safe (see \
             $(b,rstic lint)): $(b,off) (default), $(b,syntactic) \
             (flow-component proof), $(b,points-to) (adds Andersen \
             confinement) or $(b,context:K) (k-limited call-site-cloned \
             confinement plus the scope-escape checker; bare \
             $(b,context) means K=2); no-op under parts/none.")
  in
  let validate_flag =
    Arg.(
      value & flag
      & info [ "validate" ]
          ~doc:
            "Check the instrumented module with the PAC-typestate \
             translation validator before running; exit 1 on any issue.")
  in
  let flight_flag =
    Arg.(
      value
      & opt (some int) None
      & info [ "flight" ] ~docv:"N"
          ~doc:
            "PAC flight-recorder ring capacity: keep the last $(docv) \
             sign/auth/strip operations per run and attach a structured \
             incident record (failing site, expected vs observed signer, \
             detection latency, last-N window) to any authentication \
             failure. Defaults to 16 when $(b,--events) is given, off \
             otherwise.")
  in
  let action () tel file mech stats elision validate profile flight =
    let flight =
      match flight with
      | Some n -> n
      | None ->
          if tel.events <> None then Rsti_attacks.Incident.default_flight else 0
    in
    let _, inst = compile_instrumented ~elision ~validate file mech in
    let o = Pipeline.run ~profile ~flight inst in
    let r = Pipeline.result inst in
    print_string o.Interp.output;
    if profile then print_endline (Interp.profile_report o);
    if stats then begin
      Printf.printf "--- %s%s ---\n"
        (RT.mechanism_to_string mech)
        (match elision with
        | Elide.Off -> ""
        | m -> "+elide:" ^ Elide.mode_to_string m);
      Printf.printf "static sites: signs=%d auths=%d resigns=%d elided=%d\n"
        r.counts.signs r.counts.auths r.counts.resigns r.counts.elided;
      Printf.printf "cycles: %d  instructions: %d\n" o.cycles o.counts.instrs;
      Printf.printf "loads: %d  stores: %d\n" o.counts.loads o.counts.stores;
      Printf.printf "pac signs: %d  auths: %d  strips: %d  pp calls: %d\n"
        o.counts.pac_signs o.counts.pac_auths o.counts.pac_strips
        o.counts.pp_calls;
      let top profile =
        profile |> List.filteri (fun i _ -> i < 8)
        |> List.map (fun (n, c) -> Printf.sprintf "%s:%d" n c)
        |> String.concat "  "
      in
      Printf.printf "hot functions: %s\n" (top o.call_profile);
      Printf.printf "libc calls:    %s\n" (top o.extern_profile)
    end;
    if tel.events <> None then begin
      List.iter
        (fun inc ->
          Observe.Events.emit ~cat:"incident" ~name:(Filename.basename file)
            (Rsti_attacks.Incident.incident_fields inc))
        o.Interp.incidents;
      Observe.Events.emit ~cat:"run" ~name:(Filename.basename file)
        [
          ("mech", Json.Str (RT.mechanism_to_string mech));
          ("cycles", Json.Int o.Interp.cycles);
          ("instrs", Json.Int o.Interp.counts.Interp.instrs);
          ("pac_signs", Json.Int o.Interp.counts.Interp.pac_signs);
          ("pac_auths", Json.Int o.Interp.counts.Interp.pac_auths);
          ( "incidents",
            Json.Int (List.length o.Interp.incidents) );
          ( "status",
            Json.Str
              (match o.Interp.status with
              | Interp.Exited c -> Printf.sprintf "exit:%Ld" c
              | Interp.Trapped tr -> "trap:" ^ Interp.trap_to_string tr) );
        ]
    end;
    write_telemetry tel;
    match o.Interp.status with
    | Interp.Exited code -> exit (Int64.to_int code land 0xFF)
    | Interp.Trapped tr ->
        Printf.eprintf "trap: %s\n" (Interp.trap_to_string tr);
        exit 139
  in
  Cmd.v (Cmd.info "run" ~doc)
    Term.(
      const action $ jobs_term $ telemetry_term $ file_arg $ mech_arg $ stats
      $ elide_flag $ validate_flag $ profile_flag $ flight_flag)

let emit_ir_cmd =
  let doc = "Print the (optionally instrumented) IR of a MiniC program." in
  let action file mech =
    let _, inst = compile_instrumented file mech in
    print_string (Rsti_ir.Ir.modul_to_string (Pipeline.instrumented_ir inst))
  in
  Cmd.v (Cmd.info "emit-ir" ~doc) Term.(const action $ file_arg $ mech_arg)

(* attack-surface text view: per-mechanism metrics plus the non-singleton
   classes (the substitution gadget classes), members by name *)
let print_attack_surface file (results : Rsti_dataflow.Equiv.result list) =
  let module Equiv = Rsti_dataflow.Equiv in
  Printf.printf "Substitution attack surface: %s\n" file;
  List.iter
    (fun (r : Equiv.result) ->
      let m = r.Equiv.r_metrics in
      Printf.printf
        "\n%s: %d slots in %d classes (%d singletons, largest %d); \
         replay edges %d, feasible %d\n"
        (RT.mechanism_to_string r.Equiv.r_mech)
        m.Equiv.m_candidates m.Equiv.m_classes m.Equiv.m_singletons
        m.Equiv.m_largest m.Equiv.m_replay_edges m.Equiv.m_feasible_edges;
      let collisions =
        List.filter
          (fun (c : Equiv.cls) -> List.length c.Equiv.c_members > 1)
          r.Equiv.r_classes
      in
      let shown = List.filteri (fun i _ -> i < 8) collisions in
      List.iter
        (fun (c : Equiv.cls) ->
          Printf.printf "  modifier %016Lx [%s] %s: %s\n" c.Equiv.c_modifier
            (Rsti_pa.Key.which_to_string c.Equiv.c_pa_key)
            c.Equiv.c_label
            (String.concat ", "
               (List.map
                  (fun (mb : Equiv.member) ->
                    Rsti_ir.Ir.slot_to_string mb.Equiv.mb_info.Rsti_sti.Analysis.slot)
                  c.Equiv.c_members)))
        shown;
      if List.length collisions > List.length shown then
        Printf.printf "  ... %d more collision classes\n"
          (List.length collisions - List.length shown))
    results

let analyze_cmd =
  let doc = "Print the STI analysis of a MiniC program." in
  let file_pt =
    file_and_points_to ~file:Arg.file ~file_doc:"MiniC source file."
      ~doc:
        "Run the Andersen points-to analysis at MODE ($(b,insensitive), \
         the bare-flag default, or $(b,cloning:K) for k-limited \
         call-site cloning; bare $(b,cloning) means K=2) and report each \
         pointer variable's confinement verdict and the matching elision \
         classification alongside the syntactic one. A cloning mode also \
         runs the scope-escape checker. With $(b,--attack-surface), \
         additionally refines gadget feasibility at MODE."
      ()
  in
  let surface_flag =
    Arg.(
      value & flag
      & info [ "attack-surface" ]
          ~doc:
            "Print the static substitution-attack-surface analysis \
             instead: per mechanism (stwc/stc/stl/parts), the modifier \
             equivalence classes, gadget metrics, and (with \
             $(b,--format=json)) the full substitution-gadget graph; \
             $(b,--format=sarif) carries the modifier-collision and \
             feasible-substitution findings. $(b,--points-to) refines \
             feasibility; without it the unconfined attacker model is \
             used.")
  in
  let analyze_format_arg =
    let fmt_conv =
      let parse = function
        | "text" -> Ok `Text
        | "json" -> Ok `Json
        | "sarif" -> Ok `Sarif
        | s ->
            Error
              (`Msg (Printf.sprintf "unknown format %S (text|json|sarif)" s))
      in
      let print fmt f =
        Format.pp_print_string fmt
          (match f with `Text -> "text" | `Json -> "json" | `Sarif -> "sarif")
      in
      Arg.conv (parse, print)
    in
    Arg.(
      value
      & opt fmt_conv `Text
      & info [ "format" ] ~docv:"FMT"
          ~doc:
            "Output format: text (default), json, or sarif (a SARIF \
             2.1.0 document carrying the dataflow findings — \
             scope-escape and stale-frame-deref — at the requested \
             points-to mode).")
  in
  let action () (file, pt_mode) format surface =
    let a = analyzed_of_path file in
    let m = Pipeline.analyzed_ir a and anal = Pipeline.analysis a in
    let comp = Pipeline.compiled_of_analyzed a in
    if surface then begin
      let results =
        List.map
          (fun mech -> Pipeline.attack_surface ?mode:pt_mode mech a)
          Rsti_staticcheck.Attack_surface.mechanisms
      in
      match format with
      | `Text -> print_attack_surface file results
      | `Json ->
          print_string
            (Rsti_util.Json.to_string
               (Rsti_staticcheck.Attack_surface.graph_json m results));
          print_newline ()
      | `Sarif ->
          print_string
            (Rsti_staticcheck.Lint.render_sarif
               [ (file, Rsti_staticcheck.Attack_surface.findings m results) ])
    end
    else
    (match format with
    | `Sarif ->
        (* the SARIF view is the dataflow findings; default to the
           insensitive solution when no mode was requested *)
        let mode =
          Option.value pt_mode ~default:Rsti_dataflow.Points_to.Insensitive
        in
        let scope = Pipeline.scope_escape ~mode comp in
        print_string
          (Rsti_staticcheck.Lint.render_sarif
             [ (file, Rsti_staticcheck.Lint.dataflow_findings scope) ])
    | (`Text | `Json) as format ->
    let pt_elide =
      match pt_mode with
      | None -> None
      | Some mode ->
          let pt = Pipeline.points_to ~mode comp in
          let scope =
            match mode with
            | Rsti_dataflow.Points_to.Insensitive -> None
            | Rsti_dataflow.Points_to.Cloning _ ->
                Some (Pipeline.scope_escape ~mode comp)
          in
          Some (pt, Elide.analyze ~points_to:pt ?scope anal m)
    in
    let vars = Rsti_sti.Analysis.pointer_vars anal in
    let s = Rsti_sti.Analysis.stats anal in
    let c = Rsti_sti.Analysis.pp_census anal in
    match format with
    | `Text ->
        Printf.printf "Pointer variables and their RSTI-types (STWC view):\n\n";
        List.iter
          (fun (si : Rsti_sti.Analysis.slot_info) ->
            let rt = Rsti_sti.Analysis.rsti_of anal RT.Stwc si.slot in
            Printf.printf "  %-28s %s%s\n"
              (Rsti_ir.Ir.slot_to_string si.slot)
              (RT.to_string rt)
              (match pt_elide with
              | None -> ""
              | Some (_, e) ->
                  Printf.sprintf "  [elide: %s]"
                    (Elide.verdict_to_string (Elide.verdict e si.slot))))
          vars;
        (match pt_elide with
        | None -> ()
        | Some (pt, _) ->
            let st = Rsti_dataflow.Points_to.stats pt in
            Printf.printf
              "\npoints-to: %d nodes, %d objects (%d heap, %d escaped), \
               %d iterations\n"
              st.Rsti_dataflow.Points_to.nodes st.Rsti_dataflow.Points_to.objects
              st.Rsti_dataflow.Points_to.heap_objects
              st.Rsti_dataflow.Points_to.escaped_objects
              st.Rsti_dataflow.Points_to.iterations);
        Printf.printf
          "\nNT=%d RT(STC)=%d RT(STWC)=%d NV=%d  largest ECV: STC=%d STWC=%d  \
           largest ECT: STC=%d STWC=%d\n"
          s.nt s.rt_stc s.rt_stwc s.nv s.largest_ecv_stc s.largest_ecv_stwc
          s.largest_ect_stc s.largest_ect_stwc;
        Printf.printf "pointer-to-pointer sites: %d (type-loss: %d)\n"
          c.pp_total_sites
          (List.length c.pp_special)
    | `Json ->
        let module J = Rsti_util.Json in
        let e = Rsti_staticcheck.Elide.analyze anal m in
        let var si =
          let slot = si.Rsti_sti.Analysis.slot in
          J.Obj
            ([
               ("slot", J.Str (Rsti_ir.Ir.slot_to_string slot));
               ("rsti_stwc", J.Str (RT.to_string (Rsti_sti.Analysis.rsti_of anal RT.Stwc slot)));
               ("rsti_stc", J.Str (RT.to_string (Rsti_sti.Analysis.rsti_of anal RT.Stc slot)));
               ("elision", J.Str (Rsti_staticcheck.Elide.verdict_to_string
                                    (Rsti_staticcheck.Elide.verdict e slot)));
             ]
            @
            match pt_elide with
            | None -> []
            | Some (_, e_pt) ->
                [
                  ( "elision_points_to",
                    J.Str
                      (Elide.verdict_to_string (Elide.verdict e_pt slot)) );
                ])
        in
        let j =
          J.Obj
            ([
              ("file", J.Str file);
              ("pointer_vars", J.List (List.map var vars));
              ( "stats",
                J.Obj
                  [
                    ("nt", J.Int s.nt);
                    ("rt_stc", J.Int s.rt_stc);
                    ("rt_stwc", J.Int s.rt_stwc);
                    ("nv", J.Int s.nv);
                    ("largest_ecv_stc", J.Int s.largest_ecv_stc);
                    ("largest_ecv_stwc", J.Int s.largest_ecv_stwc);
                    ("largest_ect_stc", J.Int s.largest_ect_stc);
                    ("largest_ect_stwc", J.Int s.largest_ect_stwc);
                  ] );
              ( "pp_census",
                J.Obj
                  [
                    ("total_sites", J.Int c.pp_total_sites);
                    ("type_loss_sites", J.Int (List.length c.pp_special));
                  ] );
            ]
            @
            (match pt_elide with
            | None -> []
            | Some (pt, _) ->
                let st = Rsti_dataflow.Points_to.stats pt in
                [
                  ( "points_to",
                    J.Obj
                      [
                        ("nodes", J.Int st.Rsti_dataflow.Points_to.nodes);
                        ("objects", J.Int st.Rsti_dataflow.Points_to.objects);
                        ( "heap_objects",
                          J.Int st.Rsti_dataflow.Points_to.heap_objects );
                        ( "escaped_objects",
                          J.Int st.Rsti_dataflow.Points_to.escaped_objects );
                        ( "iterations",
                          J.Int st.Rsti_dataflow.Points_to.iterations );
                      ] );
                ]))
        in
        print_string (J.to_string j);
        print_newline ())
  in
  Cmd.v (Cmd.info "analyze" ~doc)
    Term.(
      const action $ jobs_term $ file_pt $ analyze_format_arg $ surface_flag)

let lint_cmd =
  let doc =
    "Run the whole-program static STI checker over MiniC sources. FILE may \
     be a single source file or a directory (linted recursively, *.c only). \
     Exit status is 1 when any error-severity finding is reported, 0 \
     otherwise (warnings and notes do not affect it)."
  in
  let lint_format_arg =
    let fmt_conv =
      let parse = function
        | "text" -> Ok `Text
        | "json" -> Ok `Json
        | "sarif" -> Ok `Sarif
        | s ->
            Error
              (`Msg (Printf.sprintf "unknown format %S (text|json|sarif)" s))
      in
      let print fmt f =
        Format.pp_print_string fmt
          (match f with `Text -> "text" | `Json -> "json" | `Sarif -> "sarif")
      in
      Arg.conv (parse, print)
    in
    Arg.(
      value
      & opt fmt_conv `Text
      & info [ "format" ] ~docv:"FMT"
          ~doc:
            "Output format: text (default), json (one report object per \
             file), or sarif (one SARIF 2.1.0 document covering every \
             linted file).")
  in
  let target_pt =
    file_and_points_to ~bare:(Points_to.Cloning 2) ~file:Arg.string
      ~file_doc:"MiniC source file or directory."
      ~doc:
        "Also run the points-to-backed dataflow rules \
         ($(b,scope-escape), $(b,stale-frame-deref)) at MODE \
         ($(b,insensitive) or $(b,cloning:K); the bare flag means \
         $(b,cloning:2)). With $(b,--attack-surface), also refines \
         gadget feasibility at MODE."
      ()
  in
  let lint_surface_flag =
    Arg.(
      value & flag
      & info [ "attack-surface" ]
          ~doc:
            "Also run the substitution-attack-surface rules: \
             $(b,modifier-collision) (warning: a modifier equivalence \
             class with two or more slots) and \
             $(b,feasible-substitution) (error: a gadget edge the \
             confined attacker can actually reach). Feasibility uses \
             $(b,--points-to) when given, the unconfined model \
             otherwise.")
  in
  let rec collect path =
    if Sys.is_directory path then
      Sys.readdir path |> Array.to_list |> List.sort compare
      |> List.concat_map (fun e -> collect (Filename.concat path e))
    else if Filename.check_suffix path ".c" then [ path ]
    else []
  in
  let action () (target, pt_mode) format surface =
    if not (Sys.file_exists target) then begin
      Printf.eprintf "rstic lint: no such file or directory: %s\n" target;
      exit 2
    end;
    let files =
      if Sys.is_directory target then collect target else [ target ]
    in
    if files = [] then
      Printf.eprintf "rstic lint: no .c files under %s\n" target;
    (* fan the files out over the domain pool; collect findings in input
       order so output is identical for any job count *)
    let reports =
      Scheduler.map
        (fun file ->
          let a = analyzed_of_path file in
          let scope =
            Option.map
              (fun mode ->
                Pipeline.scope_escape ~mode (Pipeline.compiled_of_analyzed a))
              pt_mode
          in
          let attack_surface =
            if not surface then None
            else
              Some
                (List.map
                   (fun mech -> Pipeline.attack_surface ?mode:pt_mode mech a)
                   Rsti_staticcheck.Attack_surface.mechanisms)
          in
          let findings =
            Rsti_staticcheck.Lint.run ?scope ?attack_surface
              (Pipeline.analysis a)
              (Pipeline.analyzed_ir a)
          in
          (file, findings))
        files
    in
    (match format with
    | `Sarif -> print_string (Rsti_staticcheck.Lint.render_sarif reports)
    | (`Text | `Json) as fmt ->
        List.iter
          (fun (file, findings) ->
            print_string
              (match fmt with
              | `Text -> Rsti_staticcheck.Lint.render_text ~file findings
              | `Json -> Rsti_staticcheck.Lint.render_json ~file findings))
          reports);
    let errors =
      List.exists
        (fun (_, findings) ->
          List.exists
            (fun (f : Rsti_staticcheck.Finding.t) ->
              f.severity = Rsti_staticcheck.Finding.Error)
            findings)
        reports
    in
    if errors then exit 1
  in
  Cmd.v (Cmd.info "lint" ~doc)
    Term.(
      const action $ jobs_term $ target_pt $ lint_format_arg $ lint_surface_flag)

let report_cmd =
  let module Sections = Rsti_report.Sections in
  let doc =
    "Regenerate the paper's tables and figures and this reproduction's \
     reports: each named report, or every report with no names, printed \
     under its header. The section count, wall clock and job count go to \
     stderr, so stdout is the same for any $(b,--jobs)."
  in
  let section_conv =
    let parse name =
      match List.find_opt (fun (s : Sections.t) -> s.name = name) Sections.all with
      | Some s -> Ok s
      | None -> Error (`Msg (Printf.sprintf "unknown report %S" name))
    in
    let print fmt (s : Sections.t) = Format.pp_print_string fmt s.name in
    Arg.conv (parse, print)
  in
  let which =
    Arg.(
      value
      & pos_all section_conv []
      & info [] ~docv:"REPORT"
          ~doc:
            ("Reports to print, in the order given, each once (default: \
              all, in this order): "
            ^ String.concat ", "
                (List.map (fun (s : Sections.t) -> s.name) Sections.all)
            ^ "."))
  in
  let json =
    Arg.(
      value
      & opt (some out_file) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:
            "Write the machine-readable summary ($(b,rsti-bench-fig9/1): \
             seconds per report, engine cache totals, and the blocks the \
             reports produce, Figure 9's per-benchmark overheads and \
             geomeans among them) to $(docv).")
  in
  (* Each report runs once, where first named: a second run would repeat
     its block in the summary and its events in the log. *)
  let rec once = function
    | [] -> []
    | (s : Sections.t) :: rest ->
        s :: once (List.filter (fun (r : Sections.t) -> r.name <> s.name) rest)
  in
  let action () tel json which =
    let summary =
      Sections.run (if which = [] then Sections.all else once which)
    in
    Option.iter
      (fun path -> write_file path (Json.to_string summary ^ "\n"))
      json;
    write_telemetry tel
  in
  Cmd.v (Cmd.info "report" ~doc)
    Term.(const action $ jobs_term $ telemetry_term $ json $ which)

let workloads_cmd =
  let doc =
    "Dump the SPEC2006 workload kernels as MiniC source files (one \
     <name>.c per workload, with the analysis population attached) — the \
     corpus the CI lint/analyze legs run over."
  in
  let dir_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "dir" ] ~docv:"DIR" ~doc:"Output directory (created).")
  in
  let action dir =
    if not (Sys.file_exists dir) then Sys.mkdir dir 0o755
    else if not (Sys.is_directory dir) then begin
      Printf.eprintf "rstic workloads: not a directory: %s\n" dir;
      exit 2
    end;
    List.iter
      (fun (w : Rsti_workloads.Workload.t) ->
        let path = Filename.concat dir (w.name ^ ".c") in
        write_file path (Rsti_workloads.Workload.analysis_source w);
        Printf.printf "%s\n" path)
      Rsti_workloads.Spec2006.all
  in
  Cmd.v (Cmd.info "workloads" ~doc) Term.(const action $ dir_arg)

let gen_cmd =
  let doc = "Generate a random MiniC program (seeded, reproducible)." in
  let seed =
    Arg.(value & opt int 1 & info [ "seed" ] ~docv:"N" ~doc:"Generator seed.")
  in
  let structs =
    Arg.(value & opt int 3 & info [ "structs" ] ~docv:"N" ~doc:"Struct types.")
  in
  let funcs =
    Arg.(value & opt int 5 & info [ "funcs" ] ~docv:"N" ~doc:"Worker functions.")
  in
  let action seed structs funcs =
    let config =
      {
        Rsti_workloads.Generator.default with
        n_structs = max 1 structs;
        n_funcs = max 1 funcs;
        n_globals = max 2 (structs / 2 + 2);
      }
    in
    print_string
      (Rsti_workloads.Generator.generate ~config ~seed:(Int64.of_int seed) ())
  in
  Cmd.v (Cmd.info "gen" ~doc) Term.(const action $ seed $ structs $ funcs)

let () =
  let doc = "RSTI: runtime scope-type integrity toolchain (ASPLOS'24 reproduction)" in
  let info = Cmd.info "rstic" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            run_cmd; emit_ir_cmd; analyze_cmd; lint_cmd; report_cmd; gen_cmd;
            workloads_cmd;
          ]))
