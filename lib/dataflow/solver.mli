(** Generic forward dataflow over a {!Cfg}: a worklist fixpoint solver
    parameterized by a finite-height lattice (bottom, join, equality; no
    widening) and a transfer function per instruction/terminator. The
    scope-escape analysis ({!Scope_escape}) is the in-tree client; the
    points-to solver ({!Points_to}) shares the {!Worklist} engine but
    iterates a constraint graph instead of a CFG. *)

module type LATTICE = sig
  type t

  val bottom : t
  val equal : t -> t -> bool
  val join : t -> t -> t
end

module type TRANSFER = sig
  module L : LATTICE

  type ctx

  val instr : ctx -> Rsti_ir.Ir.instr -> L.t -> L.t
  val term : ctx -> Rsti_ir.Ir.terminator -> L.t -> L.t
end

module Forward (T : TRANSFER) : sig
  type result = {
    cfg : Cfg.t;
    block_in : T.L.t array;
    block_out : T.L.t array;
    visits : int;
  }

  val solve : ctx:T.ctx -> Cfg.t -> result
  (** Iterate to fixpoint from bottom at the function entry. *)

  val iter_block :
    ctx:T.ctx -> result -> int -> (Rsti_ir.Ir.instr -> T.L.t -> unit) -> unit
  (** Re-walk block [i] from its solved entry state, calling [f instr
      state_before_instr] — how checkers consume the fixpoint. *)

  val exit_state : result -> int -> T.L.t
end
