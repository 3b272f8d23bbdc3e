(** Static/dynamic cross-validation of the substitution attack surface.

    The static analyzer ({!Rsti_dataflow.Equiv}) predicts, per
    mechanism, exactly which (donor, victim) replays survive the
    modifier check; the machine is the oracle. Any disagreement is a bug
    in the analyzer, the instrumenter, or the PA model — so this module
    checks both directions:

    - {e catalog}: every scenario in {!Substitution.expected} is run
      dynamically and compared against the static verdict for the same
      (donor, victim) pair — predicted-replayable ⇔ the attack succeeds
      on the machine;
    - {e generated}: fresh candidate replays are derived from the
      analyzer's own non-singleton classes (plus cross-class control
      pairs that must trap) and executed. A candidate victim is a global
      pointer with an unconditional load in some function's entry block
      — triggering the replay at an entry of that function guarantees
      the authentication actually runs — and a candidate donor is any
      signed same-module global. A donor whose cell is still empty at
      trigger time skips the write and is excluded from the comparison
      rather than counted as agreement. *)

type catalog_row = {
  cr_scenario : string;
  cr_mech : Rsti_sti.Rsti_type.mechanism;
  cr_static : bool;              (** predicted replayable *)
  cr_dynamic : Scenario.verdict; (** what the machine did *)
  cr_agree : bool;
}

val catalog : unit -> catalog_row list
(** Run every (scenario, mechanism) pair of {!Substitution.expected}
    and compare machine verdicts against the static prediction. *)

type gen_kind = Same_class | Cross_class

type gen_row = {
  g_program : string;
  g_mech : Rsti_sti.Rsti_type.mechanism;
  g_donor : string;              (** donor global *)
  g_victim : string;             (** victim global *)
  g_trigger : string;            (** function whose entry fires the replay *)
  g_kind : gen_kind;
  g_predicted : bool;            (** static: replay survives the check *)
  g_detected : bool option;      (** dynamic; [None] = skipped (empty donor) *)
  g_agree : bool option;         (** [detected = not predicted]; [None] if skipped *)
}

type gen_batch = {
  gb_rows : gen_row list;
  gb_pool_same : int;   (** same-class pairs available before the cap *)
  gb_pool_cross : int;  (** cross-class control pairs available before the cap *)
}

val generated :
  name:string ->
  source:string ->
  Rsti_sti.Rsti_type.mechanism ->
  gen_batch
(** Generate and execute candidate replays for one program under one
    mechanism: up to two same-class pairs and one cross-class control,
    picked deterministically (non-[main] trigger functions first, then
    lexicographic). The pool sizes report how many pairs the caps
    dropped. *)

type summary = {
  s_catalog : catalog_row list;
  s_generated : gen_row list;
  s_checked : int;         (** comparisons performed (skips excluded) *)
  s_disagreements : int;   (** MUST be 0 *)
  s_skipped : int;         (** empty-donor candidates excluded *)
  s_pool_same : int;
  s_pool_cross : int;
}

val corpus : (string * string) list
(** Hand-written crossval victim programs beyond the catalog: a size-3
    equivalence class, a cast-merged trio, and a scope-split pair, each
    with entry-block authentications so generated triggers always land. *)

val default_programs : unit -> (string * string) list
(** The four catalog victim programs plus {!corpus}, as [(name, source)]
    pairs. *)

val summarize : ?programs:(string * string) list -> unit -> summary
(** The full cross-validation: the catalog plus generated candidates for
    every [(name, source)] program (default: the four catalog programs),
    under every mechanism (STWC/STC/STL/PARTS), parallelized over
    programs. *)

val summary_json : summary -> Rsti_util.Json.t
(** The verdict counts: checks, disagreements, skipped. *)

val mechanisms : Rsti_sti.Rsti_type.mechanism list
