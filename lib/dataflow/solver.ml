(* The generic intraprocedural worklist solver.

   A client supplies a finite-height join-semilattice (bottom, join,
   equality) and a transfer function per instruction/terminator; the
   solver iterates blocks in reverse postorder off a deduplicating
   worklist until the per-block entry states stop changing. There is no
   widening: finite height bounds the iteration. *)

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

  let solve ~ctx cfg =
    let sp = Observe.Span.enter "dataflow.solver" in
    let n = Cfg.n_blocks cfg in
    let block_in = Array.make n T.L.bottom in
    let block_out = Array.make n T.L.bottom in
    let visits = ref 0 in
    if n > 0 then begin
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
            let out = transfer_block ~ctx (Cfg.func cfg).Ir.blocks.(i) block_in.(i) in
            if not (T.L.equal out block_out.(i)) then begin
              block_out.(i) <- out;
              List.iter
                (fun s ->
                  let joined = T.L.join block_in.(s) out in
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
     *before* each instruction to [f] — how checkers consume a result. *)
  let iter_block ~ctx res i f =
    let b = (Cfg.func res.cfg).Ir.blocks.(i) in
    let step st ins =
      f ins st;
      T.instr ctx ins st
    in
    ignore (List.fold_left step res.block_in.(i) b.Ir.instrs : T.L.t)

  let exit_state res i = res.block_out.(i)
end
