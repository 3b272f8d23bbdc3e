module Interp = Rsti_machine.Interp
module Cost = Rsti_machine.Cost
module RT = Rsti_sti.Rsti_type
module Pipeline = Rsti_engine.Pipeline
module Scheduler = Rsti_engine.Scheduler

type measurement = {
  workload : Workload.t;
  mech : RT.mechanism;
  base_cycles : int;
  mech_cycles : int;
  overhead_pct : float;
  dyn : Interp.counts;
  static_counts : Rsti_rsti.Instrument.static_counts;
}

let measure ?(config = Pipeline.default) (w : Workload.t) mechs =
  let analyzed =
    Pipeline.analyze ~config
      (Pipeline.compile ~config
         (Pipeline.source ~file:(w.Workload.name ^ ".c") w.Workload.source))
  in
  (* the one execution: uninstrumented, at the default prices *)
  let base =
    Pipeline.run_baseline
      ~config:{ config with Pipeline.costs = Cost.default }
      (Pipeline.compiled_of_analyzed analyzed)
  in
  let base_cycles =
    (Interp.price ~costs:config.costs (Pipeline.analyzed_ir analyzed) base)
      .Interp.cycles
  in
  List.map
    (fun mech ->
      let costs =
        if mech = RT.Parts then
          { Cost.parts_codegen with pac = config.Pipeline.costs.Cost.pac }
        else config.costs
      in
      let inst = Pipeline.instrument ~config mech analyzed in
      let o = Interp.price ~costs (Pipeline.instrumented_ir inst) base in
      let mech_cycles = o.Interp.cycles in
      {
        workload = w;
        mech;
        base_cycles;
        mech_cycles;
        overhead_pct =
          (float_of_int mech_cycles /. float_of_int base_cycles -. 1.) *. 100.;
        dyn = o.Interp.counts;
        static_counts = Pipeline.counts inst;
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
