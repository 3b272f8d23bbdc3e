(** Shared performance-measurement data for the Figure 9 / Figure 10 /
    correlation reproductions: every workload of every suite, run under
    the three RSTI mechanisms, measured once and reused. Collection fans
    out over the engine's domain pool (one task per workload) and merges
    deterministically — the record is identical for any job count. *)

type t = {
  spec2006 : Rsti_workloads.Run.measurement list;
  spec2017 : Rsti_workloads.Run.measurement list;
  nbench : Rsti_workloads.Run.measurement list;
  pytorch : Rsti_workloads.Run.measurement list;
  nginx : Rsti_workloads.Run.measurement list;
}

val collect : unit -> t
(** Run everything under {!Rsti_engine.Pipeline.default} (takes tens of
    seconds of simulation at one job; the scheduler's default job count
    parallelizes, and the engine cache reuses compile/analysis artifacts
    across sections). *)

val of_mech : Rsti_workloads.Run.measurement list -> Rsti_sti.Rsti_type.mechanism ->
  Rsti_workloads.Run.measurement list

val overheads : Rsti_workloads.Run.measurement list -> float list

val all : t -> Rsti_workloads.Run.measurement list
(** Every measurement of every suite, concatenated. *)

val to_json : t -> (string * Rsti_util.Json.t) list
(** The [benchmarks] (every measurement) and [geomeans] (per suite,
    CPython for PyTorch, and over [all], per mechanism) blocks of
    BENCH_fig9.json. *)
