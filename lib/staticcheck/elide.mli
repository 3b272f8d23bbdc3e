(** Proof-based instrumentation elision.

    Classifies every instrumentation-candidate slot as [Provably_safe]
    (its sign/auth pair can be removed with no loss of detection) or
    [Must_check] with the discharging obligation that failed. A slot is
    provably safe when every store reaching a load of it is a
    same-RSTI-type sign in the same flow component, its address never
    escapes the component, and no attacker-writable window (writable
    global array earlier in layout, or heap adjacency) aliases it. Code
    pointers are never elided.

    The syntactic rules over-approximate reachability: "a cast appears
    in the component" or "the slot is a struct field" assume an
    attacker-writable access path exists. Passing a
    {!Rsti_dataflow.Points_to} result upgrades those obligations to a
    points-to question — a slot whose every backing object is provably
    outside the attacker-writable closure (heap, extern data, escapees,
    overflow-window victims, laundered pointers, closed under stored
    contents) is discharged. Code pointers, const slots, heap-value
    donors and overflow-window victims stay categorical.

    The overflow-window victims are
    {!Rsti_dataflow.Points_to.windowed_globals}, the walk the
    confinement closure seeds on; the heap-value taint is
    {!extern_ingress}, the chase the lint's extern-ingress rule reports. *)

(** Elision precision: [Off] instruments everything, [Syntactic] uses
    the flow-component rules alone, [With_points_to] additionally
    discharges obligations by points-to confinement, and
    [With_context k] discharges with the k-limited call-site-cloned
    solution ({!Rsti_dataflow.Points_to.mode} [Cloning k]) plus the
    {!Rsti_dataflow.Scope_escape} checker — a strictly sharper attacker
    closure, so its safe set always contains [With_points_to]'s. *)
type mode = Off | Syntactic | With_points_to | With_context of int

val mode_to_string : mode -> string
(** ["off"], ["syntactic"], ["points-to"], or ["context:K"]. *)

val mode_of_string : string -> mode option
(** Accepts the {!mode_to_string} spellings plus ["on"]/["pt"]/["cs"]
    aliases; bare ["context"] means [With_context 2]. *)

type reason =
  | Heap_reachable
  | Address_escapes
  | Code_pointer
  | Const_slot
  | Heap_value
  | Overflow_window
  | Cast_in_component
  | Component_escapes
  | Scope_escapes
      (** a local in the flow component provably outlives its frame —
          the scope checker's refinement of a failed discharge (only
          reported when a {!Rsti_dataflow.Scope_escape} result was
          supplied; never changes the safe/must-check partition) *)

type verdict = Provably_safe | Must_check of reason

val reason_to_string : reason -> string
val verdict_to_string : verdict -> string

type t

val extern_ingress :
  Rsti_ir.Ir.modul -> (string * Rsti_ir.Ir.instr * Rsti_ir.Ir.slot * string) list
(** Every pointer store whose value is the raw return of an external
    (undefined) function, looked through casts: (function, store, slot,
    callee), in module order. The one chase behind the [Heap_value]
    taint and the lint's [extern-pointer-ingress] rule. *)

val analyze :
  ?points_to:Rsti_dataflow.Points_to.t ->
  ?scope:Rsti_dataflow.Scope_escape.t ->
  Rsti_sti.Analysis.t ->
  Rsti_ir.Ir.modul ->
  t
(** Build the elision map for a module (reads the global-segment
    overflow window from {!Rsti_dataflow.Points_to.windowed_globals} and
    caches per-flow-component obligations). With [?points_to], builds
    the attacker-confinement closure (seeded with the same
    overflow-window victims) and discharges dischargeable obligations through it — any
    {!Rsti_dataflow.Points_to.mode}'s solution works, and a cloned one
    discharges at least as many slots. With [?scope], failed discharges
    whose component contains a provably frame-escaping local report
    [Scope_escapes] instead of the blanket escape reason. *)

val verdict : t -> Rsti_ir.Ir.slot -> verdict
(** Classification of a slot (after alias resolution). Unknown slots are
    conservatively [Must_check]. *)

val syntactic_verdict : t -> Rsti_ir.Ir.slot -> verdict
(** The flow-component verdict alone, ignoring any points-to result —
    what {!verdict} returns on a [t] built without [?points_to]. The
    soundness-monotonicity property tests compare the two: points-to may
    only move slots from [Must_check] to [Provably_safe], never the
    reverse. *)

val dischargeable : reason -> bool
(** Whether a confinement proof may discharge this obligation. *)

val elide : t -> Rsti_ir.Ir.slot -> bool
(** [true] iff {!verdict} is [Provably_safe] — the predicate handed to
    [Rsti.Instrument.instrument ~elide]. *)

type summary = {
  candidates : int;  (** slots the instrumentation pass would touch *)
  safe : int;        (** of those, provably safe *)
  reasons : (reason * int) list;  (** must-check tally, fixed order *)
}

val summary : t -> summary
val summary_to_string : summary -> string
