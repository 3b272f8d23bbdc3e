(** The measurement runner behind Figures 9 and 10, built on the
    engine's staged pipeline: compiles a workload once (artifact-cached),
    executes it once, uninstrumented, and prices the baseline and every
    requested mechanism's build from that run's segment visits
    ({!Rsti_machine.Interp.price}), reporting cycle overheads. Pricing
    assumes what RSTI guarantees, that instrumentation inserts
    instructions into blocks and changes no path; the tests execute every
    priced row to hold it to that. *)

type measurement = {
  workload : Workload.t;
  mech : Rsti_sti.Rsti_type.mechanism;
  base_cycles : int;
  mech_cycles : int;
  overhead_pct : float;                       (** (mech/base - 1) * 100 *)
  dyn : Rsti_machine.Interp.counts;           (** the priced build's *)
  static_counts : Rsti_rsti.Instrument.static_counts;
}

val measure :
  ?config:Rsti_engine.Pipeline.config ->
  Workload.t ->
  Rsti_sti.Rsti_type.mechanism list ->
  measurement list
(** One measurement per mechanism, in mechanism order (default config
    {!Rsti_engine.Pipeline.default}). The workload executes once,
    uninstrumented, under {!Rsti_machine.Cost.default}; the baseline and
    each mechanism's build (instrumented under [config.elision]) are
    priced from that run under [config.costs], and the [Parts] mechanism
    under {!Rsti_machine.Cost.parts_codegen} with [config.costs]'s [pac].
    No instrumented module executes.
    @raise Invalid_argument when the baseline run traps, or a build's
    functions, blocks or calls differ from the baseline's. *)

val measure_suite :
  ?config:Rsti_engine.Pipeline.config ->
  Workload.t list ->
  Rsti_sti.Rsti_type.mechanism list ->
  measurement list
(** {!measure} fanned out over the engine's domain pool
    ({!Rsti_engine.Scheduler.default_jobs} workers); the result is
    flattened in workload order, so it is identical for any job count. *)

val analyze_workload :
  ?config:Rsti_engine.Pipeline.config -> Workload.t -> Rsti_sti.Analysis.t
(** The STI analysis of a workload over its full static population
    ([Workload.analysis_source] — kernel plus the generated module that
    scales types/variables to 1/8 of the real benchmark). *)

val geomean_overhead : measurement list -> float
(** Geometric-mean overhead (percent) across measurements. *)

val measurement_json : measurement -> Rsti_util.Json.t
(** One [benchmarks] row of BENCH_fig9.json: workload name and suite,
    mechanism slug, base and instrumented cycles, overhead. *)
