(** Generic forward dataflow over a {!Cfg}: a worklist fixpoint solver
    parameterized by a lattice (bottom, join, equality, widening hook)
    and a transfer function per instruction/terminator. The PAC-typestate
    validator ({!Validate}) is the in-tree client; the points-to solver
    ({!Points_to}) shares the {!Worklist} engine but iterates a
    constraint graph instead of a CFG. *)

module type LATTICE = sig
  type t

  val bottom : t
  val equal : t -> t -> bool
  val join : t -> t -> t

  val widen : t -> t -> t
  (** Replaces [join] at a block entry after [widen_after] visits of
      that block; finite-height lattices set [let widen = join]. *)
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

  val solve : ?widen_after:int -> ?entry:T.L.t -> ctx:T.ctx -> Cfg.t -> result
  (** Iterate to fixpoint. [entry] is the state at the function entry
      (default bottom); [widen_after] (default 16) bounds how many times
      a block is re-joined before the lattice's widening kicks in. *)

  val iter_block :
    ctx:T.ctx -> result -> int -> (Rsti_ir.Ir.instr -> T.L.t -> unit) -> T.L.t
  (** Re-walk block [i] from its solved entry state, calling [f instr
      state_before_instr] — how checkers consume the fixpoint — and
      return the state after the block's last instruction (the state
      its terminator sees). Unlike {!exit_state} this is defined for
      unreachable blocks too: the walk starts from their bottom entry. *)

  val exit_state : result -> int -> T.L.t
end
