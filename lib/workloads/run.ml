module Interp = Rsti_machine.Interp
module RT = Rsti_sti.Rsti_type
module Pipeline = Rsti_engine.Pipeline
module Scheduler = Rsti_engine.Scheduler

exception Divergence of string

type measurement = {
  workload : Workload.t;
  mech : RT.mechanism;
  base_cycles : int;
  mech_cycles : int;
  overhead_pct : float;
  dyn : Interp.counts;
  static_counts : Rsti_rsti.Instrument.static_counts;
}

let exit_code (o : Interp.outcome) =
  match o.Interp.status with
  | Interp.Exited code -> code
  | Interp.Trapped tr ->
      invalid_arg
        (Printf.sprintf "workload trapped: %s" (Interp.trap_to_string tr))

let measure ?(config = Pipeline.default) (w : Workload.t) mechs =
  let analyzed =
    Pipeline.analyze ~config
      (Pipeline.compile ~config
         (Pipeline.source ~file:(w.Workload.name ^ ".c") w.Workload.source))
  in
  let base_outcome =
    Pipeline.run_baseline ~config (Pipeline.compiled_of_analyzed analyzed)
  in
  let base_code = exit_code base_outcome in
  List.map
    (fun mech ->
      let run_cfg =
        if mech = RT.Parts then
          {
            config with
            Pipeline.costs =
              {
                Rsti_machine.Cost.parts_codegen with
                pac = config.Pipeline.costs.Rsti_machine.Cost.pac;
              };
          }
        else config
      in
      let inst = Pipeline.instrument ~config mech analyzed in
      let o = Pipeline.run ~config:run_cfg inst in
      let code = exit_code o in
      if code <> base_code || o.Interp.output <> base_outcome.Interp.output then
        raise
          (Divergence
             (Printf.sprintf "%s under %s: exit %Ld vs %Ld, output %S vs %S"
                w.Workload.name (RT.mechanism_to_string mech) code base_code
                o.Interp.output base_outcome.Interp.output));
      let base_cycles = base_outcome.Interp.cycles in
      let mech_cycles = o.Interp.cycles in
      {
        workload = w;
        mech;
        base_cycles;
        mech_cycles;
        overhead_pct =
          (float_of_int mech_cycles /. float_of_int base_cycles -. 1.) *. 100.;
        dyn = o.Interp.counts;
        static_counts = (Pipeline.result inst).Rsti_rsti.Instrument.counts;
      })
    mechs

let measure_suite ?(config = Pipeline.default) ws mechs =
  List.concat (Scheduler.map (fun w -> measure ~config w mechs) ws)

let analyze_workload ?(config = Pipeline.default) (w : Workload.t) =
  Pipeline.analysis
    (Pipeline.analyze ~config
       (Pipeline.compile ~config
          (Pipeline.source ~file:(w.Workload.name ^ ".c")
             (Workload.analysis_source w))))

let geomean_overhead ms =
  Rsti_util.Stats.geomean_overhead (List.map (fun m -> m.overhead_pct) ms)

let measurement_json m =
  let module J = Rsti_util.Json in
  J.Obj
    [
      ("name", J.Str m.workload.Workload.name);
      ("suite", J.Str (Workload.suite_to_string m.workload.Workload.suite));
      ("mech", J.Str (RT.mechanism_slug m.mech));
      ("base_cycles", J.Int m.base_cycles);
      ("mech_cycles", J.Int m.mech_cycles);
      ("overhead_pct", J.Float m.overhead_pct);
    ]
