(** k-limited call-site contexts: the cloning layer the context-sensitive
    points-to mode runs the Andersen solver under.

    A context is a bounded call string (newest-first call-site ids,
    length at most [k]) built over the SCC-condensed {!Callgraph}: edges
    inside one SCC do not extend the string, so recursion collapses to a
    single context and the universe is finite.  Every defined function
    carries at least the empty context — it may be entered by unknown
    external callers — and keeps at most a fixed clone budget; strings
    beyond the budget fold into the empty context (a sound merge).  The
    empty-context clone is named by the bare function name, which makes
    the [k = 0] cloned constraint graph identical to the insensitive
    one. *)

type t

val build : k:int -> Rsti_ir.Ir.modul -> Callgraph.t -> t
(** Enumerate the context universe for a module under string bound [k]. *)

val call_sites : Rsti_ir.Ir.modul -> (string * int, int) Hashtbl.t * string array
(** Stable call-site ids, independent of [k] and of the analysis mode:
    [(function, nth call instruction in function order) -> site id],
    plus the id-indexed caller names.  Deterministic over a module. *)

val empty_ctx : int
(** The empty call string; context id 0 in every universe. *)

val k : t -> int

val contexts_of : t -> string -> int list
(** The context ids a function is cloned under, ascending;
    [empty_ctx] is always a member for defined functions. *)

val extend : t -> caller:string -> ctx:int -> site:int -> callee:string -> int
(** The callee-side context for a call from [caller] (analyzed under
    [ctx]) at [site]: unchanged inside an SCC, else [site] pushed and
    truncated to [k]; strings outside the callee's enumerated set fold
    into [empty_ctx]. *)

val site : t -> caller:string -> int -> int
(** The stable id of [caller]'s nth call instruction (-1 if unknown). *)

val clone_name : t -> string -> int -> string
(** Node-name qualifier for a (function, context) clone; the empty
    context keeps the bare name. *)

val n_clones : t -> int
(** Total (function, context) pairs the solver will generate. *)

val to_string : t -> int -> string
(** Render a context as its call string, e.g. [<main#3,mid#1>]. *)
