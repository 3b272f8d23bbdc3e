(* The generic intraprocedural worklist solver.

   A client supplies a join-semilattice (bottom, join, equality, and a
   widening operator for lattices of unbounded height) and a transfer
   function per instruction/terminator; the solver iterates blocks in
   reverse postorder off a deduplicating worklist until the per-block
   entry states stop changing. After [widen_after] visits of the same
   block the join at its entry is replaced by the widening operator, so
   clients with infinite ascending chains (intervals, counts) still
   terminate; finite-height clients leave [widen = join]. *)

module Ir = Rsti_ir.Ir
module Observe = Rsti_observe.Observe

(* Shared across every Forward instantiation: how many intraprocedural
   fixpoints ran and how block visits distribute over them. *)
let c_solves = Observe.Metrics.counter "dataflow.solver.solves"
let c_visits = Observe.Metrics.counter "dataflow.solver.visits"
let h_visits = Observe.Metrics.histogram "dataflow.solver.visits_per_solve"

module type LATTICE = sig
  type t

  val bottom : t
  val equal : t -> t -> bool
  val join : t -> t -> t

  val widen : t -> t -> t
  (** [widen old new_] replaces [join] at a block entry once the block
      has been visited [widen_after] times; finite-height lattices use
      [let widen = join]. *)
end

module type TRANSFER = sig
  module L : LATTICE

  type ctx
  (** Whatever whole-function/whole-module context the transfer needs
      (the analysis, the enclosing function, side tables). *)

  val instr : ctx -> Ir.instr -> L.t -> L.t
  val term : ctx -> Ir.terminator -> L.t -> L.t
end

module Forward (T : TRANSFER) = struct
  type result = {
    cfg : Cfg.t;
    block_in : T.L.t array;
    block_out : T.L.t array;
    visits : int; (* total block visits until fixpoint, for diagnostics *)
  }

  let transfer_block ~ctx (b : Ir.block) st =
    let st = List.fold_left (fun st ins -> T.instr ctx ins st) st b.Ir.instrs in
    T.term ctx b.Ir.term st

  let solve ?(widen_after = 16) ?(entry = T.L.bottom) ~ctx cfg =
    let sp = Observe.Span.enter "dataflow.solver" in
    let n = Cfg.n_blocks cfg in
    let block_in = Array.make n T.L.bottom in
    let block_out = Array.make n T.L.bottom in
    let visit_count = Array.make n 0 in
    let visits = ref 0 in
    if n > 0 then begin
      block_in.(0) <- entry;
      let wl = Worklist.create n in
      (* Seed in reverse postorder: on reducible graphs this visits each
         block after its forward predecessors, so most blocks stabilize
         on the first sweep. *)
      Array.iter (fun b -> Worklist.push wl b) (Cfg.rpo cfg);
      let rec loop () =
        match Worklist.pop wl with
        | None -> ()
        | Some i ->
            incr visits;
            visit_count.(i) <- visit_count.(i) + 1;
            let out = transfer_block ~ctx (Cfg.func cfg).Ir.blocks.(i) block_in.(i) in
            if not (T.L.equal out block_out.(i)) then begin
              block_out.(i) <- out;
              List.iter
                (fun s ->
                  let combine =
                    if visit_count.(s) >= widen_after then T.L.widen
                    else T.L.join
                  in
                  let joined = combine block_in.(s) out in
                  if not (T.L.equal joined block_in.(s)) then begin
                    block_in.(s) <- joined;
                    Worklist.push wl s
                  end)
                (Cfg.succ cfg i)
            end;
            loop ()
      in
      loop ()
    end;
    Observe.Metrics.incr c_solves;
    Observe.Metrics.add c_visits !visits;
    Observe.Metrics.observe h_visits (float_of_int !visits);
    if sp != Observe.Span.none then begin
      Observe.Span.add_attr sp "func" (Cfg.func cfg).Ir.name;
      Observe.Span.add_attr sp "blocks" (string_of_int n);
      Observe.Span.add_attr sp "visits" (string_of_int !visits)
    end;
    Observe.Span.exit sp;
    { cfg; block_in; block_out; visits = !visits }

  (* Re-walk one block from its solved entry state, handing the state
     *before* each instruction to [f] — how checkers consume a result —
     and return the state after the last one. *)
  let iter_block ~ctx res i f =
    let b = (Cfg.func res.cfg).Ir.blocks.(i) in
    List.fold_left
      (fun st ins ->
        f ins st;
        T.instr ctx ins st)
      res.block_in.(i) b.Ir.instrs

  let entry_state res i = res.block_in.(i)
  let exit_state res i = res.block_out.(i)
end
