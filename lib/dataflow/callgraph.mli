(** The module call graph: direct-call edges plus sound indirect-call
    edges (every address-taken function), condensed into strongly
    connected components listed callees-first — the bottom-up order an
    interprocedural driver processes functions in.

    The one producer of "who can call whom": {!Points_to}'s solve order,
    {!Context}'s indirect edges, {!Scope_escape}'s stale-frame rule and
    {!Equiv}'s donor liveness all read it. Reach is computed per
    function on first query and memoized in the [t]; build a [t] per
    analysis rather than sharing one across domains. *)

type t

val of_modul : Rsti_ir.Ir.modul -> t

val sccs : t -> string list list
(** SCCs, callees-first (a component appears after every component it
    calls into). Mutually recursive functions share a component. *)

val bottom_up : t -> string list
(** {!sccs} flattened: every defined function once, callees before
    callers. *)

val callees : t -> string -> string list
(** Direct successors of a function (defined functions only). *)

val address_taken : t -> string list
(** Defined functions whose address is taken anywhere in the module (a
    [Funcaddr] operand), in module order: the targets every indirect
    call site is given. *)

val reach : t -> string -> string list
(** The functions an activation of [f] can reach — [f] itself and the
    transitive callees — sorted by name. A name the module does not
    define reaches only itself. *)

val reaches : t -> string -> string -> bool
(** [reaches t f g]: is [g] in {!reach}[ t f]? *)
