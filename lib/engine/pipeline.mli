(** The staged experiment pipeline — the one typed entry point every
    consumer ([rstic], the report/workload/attack
    libraries) uses to go from MiniC source to a measured run:

    {[ source --> compiled --> analyzed --> instrumented(mech) --> outcome ]}

    Each arrow is an explicit stage function returning an opaque stage
    value, so "compile then analyze then instrument then run" is written
    once here instead of being hand-assembled at every call site, and the
    only way to obtain an {!Rsti_rsti.Instrument.result} outside [lib/]
    is through this API. A {!config} record replaces the optional-arg
    soup that used to grow on [Workloads.Run.measure] ([?costs ?elide
    ...]); the pointer-to-pointer table an instrumented module needs at
    run time travels inside the {!instrumented} stage value, so {!run}
    wires it into the machine automatically.

    Every stage is memoized in the content-keyed {!Cache} when
    [config.cache] is set: this module owns the compile, analysis,
    points_to, points_to_cs, scope_escape, elide, elide_pt, elide_ctx,
    instrument, outcome and attack_surface stages, and writes
    each stage's computation once. Keys start from the source digest
    {!source} computes once; a stage looks up its dependencies only when
    it misses. Fan-out over workloads happens in {!Scheduler}.
    Attack-free runs memoize too — the machine is deterministic, so an
    outcome is a pure function of the source digest, the whole cost
    record and the machine knobs, which {!run}/{!run_baseline} key on.
    A run under other prices is served by pricing one execution
    ({!Rsti_machine.Interp.price}), not by this cache: that is how
    [Workloads.Run.measure] serves every mechanism and PA-cost sweep from
    one uninstrumented run per workload. Runs with attacks installed
    always execute — attack closures are not part of any key. *)

type config = {
  costs : Rsti_machine.Cost.t;  (** cycle model for {!run} *)
  elision : Rsti_staticcheck.Elide.mode;
      (** instrumentation-elision precision: [Off] keeps every site,
          [Syntactic] applies the static checker's flow-component proof,
          [With_points_to] additionally discharges obligations through
          the Andersen confinement proof, [With_context k] discharges
          through the k-limited call-site-cloned solution plus the
          scope-escape checker *)
  validate : bool;
      (** run the PAC-typestate translation validator over every
          {!instrument} output and raise {!Validation_failed} if the
          rewriter broke the signed-at-rest discipline *)
  cache : bool;
      (** consult/fill the artifact {!Cache}; [false] computes every
          stage fresh and counts nothing *)
}

val default : config
(** [costs = Cost.default], [elision = Off], [validate = false],
    [cache = true]. *)

exception Validation_failed of Rsti_dataflow.Validate.report
(** Raised by {!instrument} under [config.validate] when the validator
    rejects the instrumented module. *)

type source
type compiled
type analyzed
type instrumented

val source : ?file:string -> string -> source
(** Wrap MiniC text; [file] (default ["<memory>.c"]) names it in
    diagnostics and debug metadata. Hashes (file, text) once into the
    digest every cache key of this source starts with. *)

val compile : ?config:config -> source -> compiled
(** Parse, type-check, lower ([Ir.Lower.compile]). Frontend errors
    ([Lexer.Error], [Parser.Error], [Typecheck.Error]) propagate. *)

val analyze : ?config:config -> compiled -> analyzed
(** The whole-program STI analysis ([Sti.Analysis.analyze]). *)

val instrument :
  ?config:config -> Rsti_sti.Rsti_type.mechanism -> analyzed -> instrumented
(** The RSTI instrumentation pass; [config.elision] selects the
    [Staticcheck.Elide] proof precision (forced [Off] under
    [Parts]/[Nop], which model toolchains without the whole-program
    proof). Under [config.validate] the output is checked by
    {!Rsti_dataflow.Validate} and {!Validation_failed} raised on any
    issue. *)

val run :
  ?config:config ->
  ?attacks:Rsti_machine.Interp.attack list ->
  ?fpac:bool ->
  ?backend:[ `Pac | `Shadow_mac ] ->
  ?flight:int ->
  instrumented ->
  Rsti_machine.Interp.outcome
(** Load the instrumented module (with its pointer-to-pointer table)
    into a fresh machine under [config.costs] and execute it from
    [main]. Every outcome carries its exact hot-site profile
    ({!Rsti_machine.Interp.sites}). [flight] (default 0 = off) is the
    PAC flight recorder's ring capacity
    ({!Rsti_machine.Interp.outcome.incidents}); flight-recorded
    outcomes memoize under their own keys. *)

val run_baseline :
  ?config:config ->
  ?attacks:Rsti_machine.Interp.attack list ->
  ?cfi:bool ->
  compiled ->
  Rsti_machine.Interp.outcome
(** Execute the uninstrumented module ([cfi] enables the signature-CFI
    baseline machine). *)

(** {2 Stage accessors} *)

val file : source -> string
val text : source -> string

val ir : compiled -> Rsti_ir.Ir.modul

val compiled_of_analyzed : analyzed -> compiled
val analysis : analyzed -> Rsti_sti.Analysis.t
val analyzed_ir : analyzed -> Rsti_ir.Ir.modul

val mechanism : instrumented -> Rsti_sti.Rsti_type.mechanism

val elision : instrumented -> Rsti_staticcheck.Elide.mode
(** The elision precision this stage value was instrumented under. *)

val elided : instrumented -> bool
(** Whether any elision proof was applied: [elision i <> Off]. *)

val result : instrumented -> Rsti_rsti.Instrument.result
(** The pass output: rewritten module, pp table, static counts. *)

val instrumented_ir : instrumented -> Rsti_ir.Ir.modul
val counts : instrumented -> Rsti_rsti.Instrument.static_counts

val points_to :
  ?config:config ->
  ?mode:Rsti_dataflow.Points_to.mode ->
  compiled ->
  Rsti_dataflow.Points_to.t
(** The Andersen points-to analysis over the module at a chosen
    precision mode (default [Insensitive]); cache-memoized per mode. *)

val scope_escape :
  ?config:config ->
  ?mode:Rsti_dataflow.Points_to.mode ->
  compiled ->
  Rsti_dataflow.Scope_escape.t
(** The static scope-escape analysis, consuming the {!points_to}
    solution at the same mode; cache-memoized per mode. *)

val elide_pred :
  ?config:config ->
  ?mode:Rsti_staticcheck.Elide.mode ->
  analyzed ->
  Rsti_ir.Ir.slot ->
  bool
(** The elision-proof predicate itself at a chosen precision (default
    [Syntactic]; [Off] is constantly false); exposed for consumers that
    report per-slot verdicts. *)

val validation : instrumented -> Rsti_dataflow.Validate.report
(** The PAC-typestate validator's report for an instrumented stage value
    (computed on each call). [config.validate] runs this automatically
    inside {!instrument}. *)

val attack_surface :
  ?config:config ->
  ?mode:Rsti_dataflow.Points_to.mode ->
  Rsti_sti.Rsti_type.mechanism ->
  analyzed ->
  Rsti_dataflow.Equiv.result
(** The static substitution-attack-surface partition
    ({!Rsti_dataflow.Equiv.analyze}) for one mechanism; cache-memoized
    per (mechanism, mode). Without [mode] the partition uses the paper's
    unconfined attacker model — the configuration the dynamic oracle
    cross-validates; with it, feasibility is refined by the points-to
    confinement and scope-escape results at that precision. *)
