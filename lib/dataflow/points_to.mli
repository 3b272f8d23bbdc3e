(** Inclusion-based (Andersen) points-to analysis over the IR, solved
    with the {!Worklist} engine: field-sensitive, instance-summarized
    abstract objects, copy edges from moves/casts/calls, and the classic
    complex constraints for loads/stores through pointers and indirect
    calls. Constraint generation walks functions in {!Callgraph} bottom-up
    order.

    The {!confinement} view on top is the attacker model the elision
    client consumes: heap allocations, extern data, linear-overflow
    window victims and everything that escapes to external code —
    closed under stored-pointer contents — are attacker-writable; a slot
    backed only by other memory is {e confined}, so the syntactic
    "a cast/escape appears somewhere" obligations can be discharged.
    This module owns the overflow window ({!windowed_globals}): the
    elision verdicts, the lint rule and {!Equiv}'s writability all read
    the one walk. *)

type mode =
  | Insensitive        (** the plain whole-program Andersen solve *)
  | Cloning of int     (** k-limited call-site cloning over {!Context}
                           call strings; [Cloning 0] produces the same
                           solution as [Insensitive] *)

val mode_to_string : mode -> string
(** ["insensitive"] or ["cloning:K"] — stable; used as cache keys. *)

val mode_of_string : string -> mode option
(** Inverse of {!mode_to_string}; bare ["cloning"] means [Cloning 2].
    Negative k is rejected. *)

type obj =
  | Ovar of int                (** named variable/global storage (var id) *)
  | Otmp of string * int       (** anonymous alloca site: (function, reg) *)
  | Ofield of string * string  (** struct field cell, instance-summarized *)
  | Oheap of string * int      (** extern allocation: (callee, site id) *)
  | Oextern of string          (** extern data object *)
  | Ostr                       (** the string table (read-only) *)
  | Ofun of string             (** a function's code *)
  | Ounknown                   (** int-to-pointer launder: may be anything *)
  | Octx of obj * int
      (** a frame cell ([Ovar]/[Otmp]) of one non-empty calling context,
          created internally under [Cloning k] so differently-contexted
          calls keep separate parameter/local storage. Queries project
          it down to its base, so client code never receives one. *)

val obj_to_string : obj -> string

val base_obj : obj -> obj
(** Strip any [Octx] wrapper: the context-free object every query and
    the insensitive mode speak in. Identity on other constructors. *)

type t

val analyze : ?mode:mode -> Rsti_ir.Ir.modul -> t
(** Generate and solve the constraint system for a module (call once;
    the result is immutable thereafter and safe to share). Default mode
    is [Insensitive]. Under [Cloning k], register and return nodes are
    duplicated per {!Context} call string and frame objects (parameter
    spills and locals) get per-context [Octx] cells, while globals,
    fields and heap objects stay context-free. Every query below unions
    over the clones and projects [Octx] back to base objects, so the
    cloned solution is a pointwise refinement of the insensitive one
    after projection. *)

val mode : t -> mode

val points_to : t -> fn:string -> Rsti_ir.Ir.value -> obj list
(** The objects a value may point to, evaluated in function [fn]
    (unioned over [fn]'s clones in cloning mode). *)

val returns : t -> fn:string -> obj list
(** The objects function [fn]'s return value may point to. *)

val instances_of : t -> string -> obj list
(** The base objects field accesses of struct [sname] were applied to —
    where instances of the struct may live. *)

val objects : t -> obj list
(** Every distinct base object the solve interned, sorted. *)

val cell_contents : t -> obj -> obj list
(** The objects whose addresses may be stored inside [o] (its content
    cell); empty for objects without a cell. *)

val escaped_objects : t -> obj list
(** Objects whose addresses were handed to external code. *)

type stats = {
  nodes : int;
  objects : int;
  iterations : int;
  heap_objects : int;
  escaped_objects : int;
  clones : int;          (** (function, context) pairs generated *)
}

val stats : t -> stats

(** {2 The attacker model} *)

val opens_window : Rsti_ir.Ir.modul -> Rsti_minic.Ctype.t -> bool
(** Does storage of this type open a forward linear-overflow window over
    whatever is laid out behind it? True for writable arrays and structs
    containing one. *)

val windowed_globals : Rsti_ir.Ir.modul -> int list
(** The overflow window's victims in the globals segment: the var ids of
    every global laid out (in declaration order) after the first one
    that {!opens_window}, in layout order. The one walk behind
    {!confinement}'s window seeds, [Elide]'s [overflow-window] verdict
    and the lint's [overflow-window] rule. *)

type confinement

val confinement : t -> confinement
(** Compute the attacker-writable object closure, seeded with heap
    objects, extern data, int-laundered pointers, extern-call escapees
    and the {!windowed_globals} of the module the solution was built
    from. Reads the solution without changing it, so {!stats} are the
    same before and after. *)

val attacker_obj : confinement -> obj -> bool
val attacker_objects : confinement -> obj list

val confined_slot : confinement -> Rsti_ir.Ir.slot -> bool
(** No attacker-writable object can back this slot: the discharge
    predicate behind [Elide]'s [~points_to] precision. [Svar] checks the
    variable's own object; [Sfield] checks every recorded instance of
    the struct plus the summarized cell; [Sanon] checks every object
    reachable from the class' recorded access paths (private stack/
    global storage only). *)

val confinement_stats : confinement -> int * int
(** (attacker objects, total objects) — for reports. *)
