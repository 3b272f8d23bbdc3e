(** Lint/report frontend for the static substitution-attack-surface
    analysis ({!Rsti_dataflow.Equiv}): runs the partition for every
    mechanism, renders the gadget graph, and turns it into the two
    attack-surface lint rules —

    - [modifier-collision] (warning): an equivalence class of ≥ 2
      instrumented slots signing under one PA (key, modifier) pair, with
      the replay edges it admits under the paper's arbitrary-write
      attacker;
    - [feasible-substitution] (error): a concrete (donor, victim) replay
      the confined linear-overflow attacker can execute — the donor is
      signed and live, and the victim's storage is attacker-writable
      under {!Rsti_dataflow.Points_to.confinement}.

    Both rules are opt-in ([rstic lint --attack-surface],
    [rstic analyze --attack-surface]); the base lint battery is
    unchanged. *)

val mechanisms : Rsti_sti.Rsti_type.mechanism list
(** The mechanisms the surface is computed for:
    [STWC; STC; STL; PARTS]. *)

val surface :
  ?points_to:Rsti_dataflow.Points_to.t ->
  ?scope:Rsti_dataflow.Scope_escape.t ->
  Rsti_sti.Analysis.t ->
  Rsti_ir.Ir.modul ->
  Rsti_dataflow.Equiv.result list
(** One {!Rsti_dataflow.Equiv.analyze} result per mechanism, in
    {!mechanisms} order. *)

val feasible_edges :
  Rsti_dataflow.Equiv.cls ->
  (Rsti_dataflow.Equiv.member * Rsti_dataflow.Equiv.member) list
(** The class's replay edges whose victim is {!Rsti_dataflow.Equiv.feasible}:
    the edges [m_feasible_edges] counts. *)

val findings :
  Rsti_ir.Ir.modul -> Rsti_dataflow.Equiv.result list -> Finding.t list
(** The lint findings for a computed surface, sorted and deduplicated.
    At most {!max_edge_findings} [feasible-substitution] errors are
    enumerated per class (the class's [modifier-collision] finding
    always carries the full edge count); the module argument only
    supplies variable names for display. *)

val max_edge_findings : int
(** Per-class cap on enumerated [feasible-substitution] findings. *)

val graph_json :
  Rsti_ir.Ir.modul -> Rsti_dataflow.Equiv.result list -> Json.t
(** The substitution-gadget graph: per mechanism, every class with its
    members (sign/auth counts, writability, escape) and its replayable
    edges, plus the {!Rsti_dataflow.Equiv.metrics} — the
    [rstic analyze --attack-surface --format=json] payload. Edge lists
    are capped at {!max_graph_edges} per class with an explicit
    [edges_truncated] marker. *)

val max_graph_edges : int
