(** Ablation benches for the design choices DESIGN.md calls out. *)

val pac_cost_sweep : unit -> string
(** Sweep the modelled PA-instruction cost over 3..12 cycles (the paper
    adopts the 7-XOR equivalence) and report the SPEC2006 geomean per
    mechanism at each cost. *)

val merge_effect : unit -> string
(** Effect of STC's compatible-type merging: RSTI-type counts and static
    instrumentation sites with (STC) and without (STWC) combining, per
    SPEC2006 benchmark. *)

val stl_argument_cost : unit -> string
(** How much of STL's instrumentation is attributable to location
    re-binding at calls: static re-sign sites under STL vs STWC. *)

val ce_width : unit -> string
(** Pointer-to-pointer CE capacity: distinct original types needing a CE
    across all suites versus the 8-bit (255-entry) budget. *)

val pac_brute_force : unit -> string
(** PAC width vs forgery resistance, measured: an attacker who cannot
    sign guesses pointers with random PAC bits; the measured acceptance
    rate must track 2^-width (7 usable bits under TBI, 15 without — the
    paper's section 6.2.1 cites prior work that the PAC length suffices;
    this makes the claim quantitative). *)

val elision : unit -> string
(** The static checker's proof-based elision over SPEC2006: per-benchmark
    instrumented-site counts and STWC overhead with and without
    {!Rsti_staticcheck.Elide}, plus full-vs-elided geomeans per mechanism
    (the fig9 bars with elision on). *)

val elide_precision : unit -> string
(** Syntactic vs points-to elision precision over SPEC2006: per-workload
    candidate counts, provably-safe counts at both precisions, and the
    delta the {!Rsti_dataflow.Points_to} confinement proof adds. *)

type cs_row = {
  cs_name : string;
  cs_candidates : int;
  cs_safe_syn : int;       (** provably-safe, syntactic proof only *)
  cs_safe_pt : int;        (** + insensitive Andersen confinement *)
  cs_safe_cs : int;        (** + k=2 cloning and scope-escape *)
  cs_seconds_pt : float;   (** wall-clock of the insensitive pass *)
  cs_seconds_cs : float;   (** wall-clock of the cloned pass *)
}

val elide_precision_cs_data : unit -> cs_row list
(** The three-way precision ladder over SPEC2006 as data. *)

val render_elide_precision_cs : cs_row list -> string
(** Safe counts at all three precisions and the cloning delta. The
    per-mode wall-clocks go only to {!cs_rows_json}, so the text is the
    same on every run. *)

val cs_rows_json : cs_row list -> Rsti_util.Json.t
(** The [elide-precision-cs] block of BENCH_fig9.json: one object per
    row, every field, seconds included. *)

val backend_comparison : unit -> string
(** Section 7's "RSTI with mechanisms other than PAC", made concrete:
    the STWC policy enforced through a CCFI-style shadow MAC, compared
    against the PAC backend on the pointer-active SPEC2006 kernels. *)
