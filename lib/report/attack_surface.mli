(** The static substitution-attack-surface report: per-workload modifier
    equivalence-class structure and gadget metrics for every mechanism at
    every points-to precision, plus the static/dynamic cross-validation
    (the [attack-surface] section of {!Sections}). *)

type row = {
  as_workload : string;
  as_mech : Rsti_sti.Rsti_type.mechanism;
  as_mode : Rsti_dataflow.Points_to.mode option;
      (** [None] = the unconfined oracle model *)
  as_metrics : Rsti_dataflow.Equiv.metrics;
}

val modes : Rsti_dataflow.Points_to.mode option list
(** The precision ladder each (workload, mechanism) pair is analyzed at:
    oracle, [Insensitive], [Cloning 2]. *)

val collect : unit -> row list
(** One row per (workload, mechanism, mode) over the static population
    ([Workload.analysis_source]) of the 18 SPEC2006 kernels. Fans out
    over the domain pool; cache-memoized. *)

val class_refinement_ok : row list -> bool
(** The acceptance invariant: for every workload at every mode,
    [classes(STC) <= classes(STWC) <= classes(STL)] — cast-merging only
    coarsens and the location tweak only refines. *)

val feasible_refinement_ok : row list -> bool
(** For every (workload, mechanism): feasible edges never increase as
    precision rises — [feasible(Cloning 2) <= feasible(Insensitive) <=
    replay edges (oracle)]. *)

val render : row list -> string
(** The two tables: class structure per mechanism (oracle mode) and the
    gadget-edge precision ladder, each with its invariant verdict. *)

val crossval_summary : unit -> Rsti_attacks.Crossval.summary
(** The full cross-validation: the substitution catalog plus generated
    candidates over the catalog programs and every executed SPEC2006
    kernel. *)

val render_crossval : Rsti_attacks.Crossval.summary -> string
(** Catalog and generated-candidate tables plus the machine-checkable
    verdict line: ["Cross-validation verdict: OK ..."] exactly when
    there are zero disagreements (["MISMATCH"] otherwise — the CI gate
    greps for the former). *)

val to_json : row list -> Rsti_attacks.Crossval.summary -> Rsti_util.Json.t
(** The [attack-surface] block of BENCH_fig9.json: one object per row
    (workload, mechanism slug, mode, class and edge counts), whether
    both refinement invariants hold, and the cross-validation counts. *)
