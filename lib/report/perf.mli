(** Shared performance-measurement data for the Figure 9 / Figure 10 /
    correlation reproductions: every workload of every suite, executed
    once uninstrumented and priced under the three RSTI mechanisms
    ({!Rsti_workloads.Run.measure}), measured once and reused. Collection
    fans out over the engine's domain pool (one task per workload) and
    merges deterministically — the record is identical for any job
    count. *)

type t = {
  spec2006 : Rsti_workloads.Run.measurement list;
  spec2017 : Rsti_workloads.Run.measurement list;
  nbench : Rsti_workloads.Run.measurement list;
  pytorch : Rsti_workloads.Run.measurement list;
  nginx : Rsti_workloads.Run.measurement list;
}

val collect : unit -> t
(** Measure everything under {!Rsti_engine.Pipeline.default} (about a
    second of simulation at one job, the 60 baseline runs; the
    scheduler's default job count parallelizes, and the engine cache
    reuses compile/analysis/instrument artifacts and baseline outcomes
    across sections). Adds each mechanism's priced totals over all the
    rows to the counters [machine.fig9.<mech>.instrs], [cycles],
    [pac_signs], [pac_auths], [pac_strips] and [pp_calls]. *)

val of_mech : Rsti_workloads.Run.measurement list -> Rsti_sti.Rsti_type.mechanism ->
  Rsti_workloads.Run.measurement list

val overheads : Rsti_workloads.Run.measurement list -> float list

val all : t -> Rsti_workloads.Run.measurement list
(** Every measurement of every suite, concatenated. *)

val to_json : t -> (string * Rsti_util.Json.t) list
(** The [benchmarks] (every measurement) and [geomeans] (per suite,
    CPython for PyTorch, and over [all], per mechanism) blocks of
    BENCH_fig9.json. *)
