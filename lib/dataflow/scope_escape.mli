(** Static scope-escape analysis: per stack slot, whether its address
    can outlive the defining scope — the static counterpart of the
    paper's runtime scope enforcement.

    Each register's frame local is read off its one definition (an
    alloca of the function's own local, or a gep, gepidx or bitcast of
    a register holding one). A walk over every block, reachable from
    the entry or not, flags the three outliving sinks (stored into
    longer-lived memory, returned, passed to external code) with
    precise lines; the {!Points_to} solution then completes the picture
    interprocedurally (addresses stashed by callees) and powers the
    stale-frame rule: a deref in [g] of a pointer targeting a local of
    [f] where [f] cannot be an active caller of [g] touches a frame that
    has provably ended. *)

type sink =
  | Stored of string        (** description of the longer-lived destination *)
  | Returned
  | Passed_extern of string (** the external callee *)

val sink_to_string : sink -> string

type escape = {
  local : int;         (** var id *)
  local_name : string;
  func : string;       (** defining function *)
  line : int;          (** the sink's line (for a return, the line of
                           the returned expression), or the declaration
                           line when the sink is interprocedural or the
                           expression has no line *)
  sink : sink;
}

type stale = {
  use_func : string;
  use_line : int;
  local_name : string;
  decl_func : string;
  must : bool;  (** every object the pointer may target is a dead frame *)
}

type t

val analyze : points_to:Points_to.t -> Rsti_ir.Ir.modul -> t
(** Run the analysis; any {!Points_to.mode}'s solution works (a sharper
    mode yields fewer spurious escapes). *)

val escapes : t -> escape list
(** May-escape events, deterministic order. A local can appear once per
    distinct sink. A local with no sink instruction in its defining
    function gets one interprocedural sink from the points-to solution:
    [Passed_extern "<extern>"] if it escaped to extern code, else
    [Stored] naming the first longer-lived object (in
    {!Points_to.objects} order) whose cell holds its address, else
    [Returned] if the defining function's return channel carries it. *)

val stale_derefs : t -> stale list
(** Dereferences of provably-dead frames, deterministic order. *)

val may_escape : t -> int -> bool
(** Whether the local with this var id has any escape sink. *)

val stats : t -> int * int
(** (escaping locals, total locals). *)
