(** Static substitution-attack-surface analysis (paper Table 2 /
    section 6.2.1, made static).

    For one mechanism this module partitions every instrumented slot —
    exactly the population {!Rsti_sti.Analysis.instrument_candidate}
    admits, so the partition is the instrumenter's, not an
    approximation — into modifier-collision equivalence classes: two
    slots fall in the same class iff the runtime signs their pointers
    under the same PA key and the same modifier, which is precisely when
    a signed value harvested from one slot authenticates at the other
    (a replay / substitution gadget). Under [Stl] the modifier also
    binds the storage address, so distinct slots are distinct classes by
    construction.

    Two feasibility tiers per gadget edge, because two attacker models
    are in play:

    - {e replayable} — the paper's threat model (arbitrary read/write,
      no key material): same class, the donor is signed somewhere, the
      victim is authenticated somewhere, and (for stack donors) a frame
      holding the donor can still be live when the victim authenticates.
      This tier is what the dynamic oracle in [lib/attacks] must agree
      with, verdict for verdict.
    - {e feasible} — the confined linear-overflow attacker of
      {!Points_to.confinement}: additionally the victim's storage must
      be backed by attacker-writable memory, and a stack victim must
      actually escape its frame ({!Scope_escape}) for the attacker to
      have a handle on it. This refined tier feeds the
      [feasible-substitution] lint rule and the bench metrics. *)

type member = {
  mb_info : Rsti_sti.Analysis.slot_info;
  mb_signs : int;           (** instrumented store (sign) sites *)
  mb_auths : int;           (** instrumented load (auth) sites *)
  mb_auth_funcs : string list;  (** functions holding the auth sites *)
  mb_writable : bool;       (** storage reachable by the confined attacker *)
  mb_escapes : bool;        (** stack slot whose address outlives its frame *)
  mb_reach : string list option;
      (** functions whose activation can overlap this slot's lifetime
          (call-graph closure from the declaring function, sorted).
          [None] for globals, fields, and anonymous slots: always live.
          A stack donor is live at a victim's auth site only when one of
          the victim's auth functions is in this set. *)
}

type cls = {
  c_modifier : int64;       (** the shared PA modifier constant *)
  c_pa_key : Rsti_pa.Key.which;
  c_label : string;         (** the RSTI-type (or PARTS type) it encodes *)
  c_members : member list;  (** sorted by slot key *)
}

type metrics = {
  m_candidates : int;       (** instrumented slots partitioned *)
  m_classes : int;
  m_singletons : int;
  m_largest : int;          (** largest class size (0 when no classes) *)
  m_hist : (int * int) list;  (** class size -> number of classes, ascending *)
  m_replay_edges : int;     (** gadget edges under the paper's attacker *)
  m_feasible_edges : int;   (** gadget edges under the confined attacker *)
}

type result = {
  r_mech : Rsti_sti.Rsti_type.mechanism;
  r_classes : cls list;     (** sorted by (label, modifier); deterministic *)
  r_metrics : metrics;
}

val analyze :
  ?points_to:Points_to.t ->
  ?scope:Scope_escape.t ->
  Rsti_sti.Analysis.t ->
  Rsti_ir.Ir.modul ->
  Rsti_sti.Rsti_type.mechanism ->
  result
(** Partition the module's instrumented slots under a mechanism. Without
    [points_to] every member is attacker-writable (the paper's threat
    model — the oracle configuration); with it, writability is refined
    by {!Points_to.confinement}, whose overflow-window seeds are
    {!Points_to.windowed_globals}. Donor liveness ([mb_reach]) is
    {!Callgraph.reach} from the declaring function. Without [scope]
    every stack slot conservatively escapes. [Nop] yields the empty
    partition. *)

val feasible : member -> bool
(** The victim side of a feasible gadget edge: storage writable by the
    confined attacker ([mb_writable]) and, for a stack slot, an address
    that outlives its frame ([mb_escapes]). [m_feasible_edges] counts the
    {!class_edges} whose victim satisfies it; the
    [feasible-substitution] findings and the gadget-graph JSON filter
    by it too. *)

val replayable : result -> donor:Rsti_ir.Ir.slot -> victim:Rsti_ir.Ir.slot -> bool
(** Whether (donor, victim) is a replayable gadget edge: same class,
    donor signed, victim authenticated, donor live at an auth site.
    False when either slot is not in the partition. This is the static
    verdict the dynamic cross-validation checks. *)

val find_member : result -> Rsti_ir.Ir.slot -> (cls * member) option
(** The class and member record a slot landed in, if any. *)

val class_edges : cls -> (member * member) list
(** All replayable (donor, victim) edges inside one class, in member
    order — the materialized gadget graph for reports and lint. Liveness
    of stack donors is already folded in. *)
