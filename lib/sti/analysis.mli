(** The compile-time STI analysis (paper section 4.4): walks the IR and
    its debug metadata to recover, for every pointer slot (named variable,
    struct field, or anonymous deref target), the programmer's intent —
    basic type, scope, and permission — and derives each mechanism's
    RSTI-types and PA modifiers from it.

    Scope construction: the slot's occurrence functions (every load/store
    site's [!dbg] function, plus its declaration function), widened across
    the interprocedural flow component the slot belongs to (assignments,
    argument passing, returns — the paper's "escaping variables"), per
    basic type; composite types contribute their ["struct X"] name to
    their members' scope (field-sensitive analysis, section 4.7.4); cast
    sites contribute their function to the scope of the cast's target
    type within the flow component.

    STC merging: basic types connected by any cast in the program are
    compatible (section 4.8) and collapse into one type class.

    Once every union is made, {!analyze} indexes both partitions: each
    flow component's member slots (sorted by key) and each STC class's
    basic pointer types (sorted). Scopes, {!component_of_slot} and
    {!type_class_names} read these indexes, so a query costs the size
    of its component or class, not of the module. An anonymous slot
    {!slot_info} creates afterwards joins its component's entry. *)

type slot_kind =
  | Klocal
  | Kparam
  | Kglobal
  | Kfield of string  (** owning struct *)
  | Kanon

type slot_info = {
  slot : Rsti_ir.Ir.slot;
  key : string;                         (** canonical identity *)
  sty : Rsti_minic.Ctype.t;             (** declared type (with quals) *)
  read_only : bool;                     (** permission *)
  kind : slot_kind;
  decl_func : string option;
  mutable occ : string list;            (** occurrence functions *)
}

type t

val analyze : Rsti_ir.Ir.modul -> t
(** Run the whole-program analysis (the paper runs its pass at LTO time
    for the same whole-program view, section 5). *)

val slot_info : t -> Rsti_ir.Ir.slot -> slot_info
(** Info for a slot appearing in the module; anonymous slots are created
    on demand. *)

val rsti_of : t -> Rsti_type.mechanism -> Rsti_ir.Ir.slot -> Rsti_type.t
(** The slot's RSTI-type under a mechanism. [Stl] shares [Stwc]'s
    RSTI-type (the location is added at runtime); [Parts] degenerates to
    the basic type; [Nop] raises. *)

val modifier_of : t -> Rsti_type.mechanism -> Rsti_ir.Ir.slot -> int64
(** The PA modifier constant for a slot under a mechanism. *)

val address_taken : t -> int -> bool
(** Whether a local variable's address escapes (is used other than as a
    direct load/store address). Non-escaping locals are register-promoted
    at -O2 (LLVM's [isNonEscapingLocalObject], paper section 4.5) and are
    not instrumented. *)

val key_for : Rsti_minic.Ctype.t -> Rsti_pa.Key.which
(** Code pointers use the IA key, data pointers DA (section 2.4). *)

val instrument_candidate :
  t -> Rsti_type.mechanism -> Rsti_minic.Ctype.t -> Rsti_ir.Ir.slot -> bool
(** Whether an access of type [ty] through this slot carries PAC
    instrumentation under the mechanism — the single criterion shared by
    {!Rsti_rsti.Instrument} and the attack-surface analysis
    ({!Rsti_dataflow.Equiv}), so the static sign/auth population and the
    instrumenter's never drift apart. Fields and anonymous deref targets
    always qualify; locals and parameters only when their address
    escapes ({!address_taken}); [Parts] instruments every pointer slot;
    [Nop] none. *)

val casts : t -> (string * string * string) list
(** All pointer casts: (function, from-type, to-type). *)

val slot_key : Rsti_ir.Ir.slot -> string
(** The canonical string identity of a slot (the [key] field of its
    {!slot_info}); what the flow-component union-find is keyed by. *)

val alias_slot : t -> Rsti_ir.Ir.slot -> Rsti_ir.Ir.slot
(** The slot the instrumentation actually keys modifiers on: a pointer
    variable whose address escapes shares the anonymous (type-keyed)
    slot, so writes through arbitrary same-typed pointers and direct
    accesses agree on one modifier. Other slots map to themselves. *)

val component_of : t -> Rsti_ir.Ir.slot -> string
(** Representative key of the slot's interprocedural flow component. *)

val component_of_slot : t -> Rsti_ir.Ir.slot -> slot_info list
(** All slots in the same flow component, sorted by key (deterministic —
    the static checker's passes iterate this). *)

val cast_occs : t -> slot_info -> (string * string) list
(** Cast occurrences whose source value was loaded from this slot:
    (function, target type). Non-empty means values flowing out of the
    slot are laundered through pointer casts. *)

val pointer_vars : t -> slot_info list
(** All named pointer variables (locals, params, globals, fields) — the
    population Table 3 counts. *)

val type_class_of : t -> Rsti_minic.Ctype.t -> string list
(** The STC compatible-type class containing a type (as type names). *)

val type_class_names : t -> string -> string list
(** Same, keyed by the canonical type name (qualifiers stripped). *)

type stats = {
  nt : int;                  (** distinct basic pointer types (Table 3 NT) *)
  rt_stwc : int;             (** STWC RSTI-types (Table 3 RT/STWC) *)
  rt_stc : int;              (** STC RSTI-types (Table 3 RT/STC) *)
  nv : int;                  (** pointer variables (Table 3 NV) *)
  largest_ecv_stwc : int;    (** Table 3 Largest ECV / STWC *)
  largest_ecv_stc : int;     (** Table 3 Largest ECV / STC *)
  largest_ect_stwc : int;    (** always 1 by construction *)
  largest_ect_stc : int;     (** Table 3 Largest ECT / STC *)
}

val stats : t -> stats
(** The Table 3 row for this module. *)

type pp_census = {
  pp_total_sites : int;   (** double-pointer loads + double-pointer call
                              arguments (the paper's 7,489 for SPEC2006) *)
  pp_special : (string * Rsti_minic.Ctype.t) list;
      (** sites where the original type is lost — a double pointer cast to
          a universal type and passed as an argument (the paper's 25):
          (function, original type) *)
}

val pp_census : t -> pp_census

val ce_table : t -> (Rsti_minic.Ctype.t * int * int64) list
(** CE assignments for the special sites' original types:
    (original type, CE tag in 1..255, FE modifier). *)
