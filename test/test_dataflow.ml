(* Tests for the interprocedural dataflow framework: CFG/solver/call
   graph units, Andersen points-to confinement, and the PAC-typestate
   translation validator (green on everything Instrument emits, red on
   every mutant kind of it). *)

module Ir = Rsti_ir.Ir
module Cfg = Rsti_dataflow.Cfg
module Solver = Rsti_dataflow.Solver
module Callgraph = Rsti_dataflow.Callgraph
module Points_to = Rsti_dataflow.Points_to
module Validate = Rsti_dataflow.Validate
module Elide = Rsti_staticcheck.Elide
module Analysis = Rsti_sti.Analysis
module RT = Rsti_sti.Rsti_type
module Instrument = Rsti_rsti.Instrument
module Pipeline = Rsti_engine.Pipeline

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let compile src = Rsti_ir.Lower.compile ~file:"t.c" src

let branching_src =
  {|
int total;
int main(void) {
  int i;
  i = 0;
  total = 0;
  while (i < 10) {
    if (i > 5) { total = total + 2; } else { total = total + 1; }
    i = i + 1;
  }
  return total;
}
|}

(* ------------------------------ CFG -------------------------------- *)

let test_cfg_shape () =
  let m = compile branching_src in
  List.iter
    (fun (fn : Ir.func) ->
      let cfg = Cfg.of_func fn in
      checki (fn.Ir.name ^ " block count") (Array.length fn.Ir.blocks)
        (Cfg.n_blocks cfg);
      let rpo = Cfg.rpo cfg in
      if Array.length rpo > 0 then
        checki (fn.Ir.name ^ " rpo starts at entry") 0 rpo.(0);
      (* succ and pred are inverse relations *)
      for i = 0 to Cfg.n_blocks cfg - 1 do
        List.iter
          (fun s ->
            checkb
              (Printf.sprintf "%s: %d in pred(%d)" fn.Ir.name i s)
              true
              (List.mem i (Cfg.pred cfg s)))
          (Cfg.succ cfg i);
        List.iter
          (fun p ->
            checkb
              (Printf.sprintf "%s: %d in succ(%d)" fn.Ir.name i p)
              true
              (List.mem i (Cfg.succ cfg p)))
          (Cfg.pred cfg i)
      done;
      checkb (fn.Ir.name ^ " entry reachable") true (Cfg.reachable cfg 0))
    m.Ir.m_funcs

(* ----------------------------- solver ------------------------------ *)

(* A one-bit forward lattice ("a store has been executed on some path
   into this point"): exercises join over branch merges and fixpoint
   termination over the loop. *)
module Store_seen = struct
  module L = struct
    type t = bool

    let bottom = false
    let equal = Bool.equal
    let join = ( || )
  end

  type ctx = unit

  let instr () (ins : Ir.instr) st =
    match ins.Ir.i with Ir.Store _ -> true | _ -> st

  let term () _ st = st
end

module F = Solver.Forward (Store_seen)

let test_solver_fixpoint () =
  let m = compile branching_src in
  let fn = List.find (fun (f : Ir.func) -> f.Ir.name = "main") m.Ir.m_funcs in
  let cfg = Cfg.of_func fn in
  let res = F.solve ~ctx:() cfg in
  (* main stores to [total] in its entry block, so every reachable
     block's exit sees the bit set *)
  for i = 0 to Cfg.n_blocks cfg - 1 do
    if Cfg.reachable cfg i then
      checkb (Printf.sprintf "block %d exit" i) true (F.exit_state res i)
  done;
  checkb "visited at least every reachable block" true
    (res.F.visits >= Array.length (Cfg.rpo cfg));
  (* iter_block replays states consistent with the block boundary *)
  let entry_seen = ref None in
  F.iter_block ~ctx:() res 0 (fun _ st ->
      if !entry_seen = None then entry_seen := Some st);
  (match !entry_seen with
  | Some st -> checkb "entry block starts at bottom" false st
  | None -> ())

(* --------------------------- call graph ---------------------------- *)

let callgraph_src =
  {|
int leaf(int x) { return x + 1; }
int mid(int x) { return leaf(x) + leaf(x + 1); }
int main(void) { return mid(1); }
|}

let test_callgraph_bottom_up () =
  let m = compile callgraph_src in
  let cg = Callgraph.of_modul m in
  let order = Callgraph.bottom_up cg in
  let pos f =
    let rec go i = function
      | [] -> Alcotest.failf "%s missing from bottom_up" f
      | x :: _ when x = f -> i
      | _ :: tl -> go (i + 1) tl
    in
    go 0 order
  in
  checkb "leaf before mid" true (pos "leaf" < pos "mid");
  checkb "mid before main" true (pos "mid" < pos "main");
  checkb "mid calls leaf" true (List.mem "leaf" (Callgraph.callees cg "mid"));
  checkb "leaf reachable from main" true (Callgraph.reaches cg "main" "leaf");
  checkb "main not reachable from leaf" false
    (Callgraph.reaches cg "leaf" "main")

(* --------------------------- points-to ----------------------------- *)

let confinement_src =
  {|
extern void sink(int **h);
int x;
int y;
int *p;
int *q;
int main(void) {
  p = &x;
  *p = 1;
  q = &y;
  sink(&q);
  return 0;
}
|}

let global_slot (m : Ir.modul) name =
  let g =
    List.find
      (fun (g : Ir.global_def) -> g.Ir.gvar.Rsti_minic.Tast.v_name = name)
      m.Ir.m_globals
  in
  Ir.Svar g.Ir.gvar.Rsti_minic.Tast.v_id

let test_points_to_confinement () =
  let m = compile confinement_src in
  let pt = Points_to.analyze m in
  let conf = Points_to.confinement pt in
  checkb "p never escapes -> confined" true
    (Points_to.confined_slot conf (global_slot m "p"));
  checkb "&q escapes through sink() -> not confined" false
    (Points_to.confined_slot conf (global_slot m "q"));
  let st = Points_to.stats pt in
  checkb "analysis saw objects" true (st.Points_to.objects > 0);
  checkb "fixpoint took at least one pass" true (st.Points_to.iterations >= 1)

(* A struct instance handed to extern code makes every field cell of the
   struct attacker memory, even [b], which no access ever touched. The
   query answers that without interning [b]'s cell: a solution shared
   through the engine cache reads the same before and after its readers
   ran. *)
let test_points_to_confinement_read_only () =
  let m =
    compile
      {|
struct pair { long a; long b; };
extern void sink(struct pair* p);
struct pair g;
int main(void) {
  g.a = 1;
  sink(&g);
  return 0;
}
|}
  in
  let pt = Points_to.analyze m in
  let before = Points_to.stats pt in
  let conf = Points_to.confinement pt in
  checkb "untouched field of an escaped instance -> not confined" false
    (Points_to.confined_slot conf (Ir.Sfield ("pair", "b")));
  checkb "field cell is attacker memory" true
    (Points_to.attacker_obj conf (Points_to.Ofield ("pair", "b")));
  checkb "stats unchanged by the query" true (before = Points_to.stats pt)

(* The overflow window is part of the attacker model itself: a pointer
   global laid out behind a writable global array is attacker memory
   even though its address never escapes, and [confinement] finds that
   from the module the solution was built from. *)
let test_points_to_confinement_window () =
  let m =
    compile
      {|
int x;
int *before;
int buf[8];
int *after;
int main(void) {
  before = &x;
  after = &x;
  buf[0] = *after;
  return 0;
}
|}
  in
  let id name =
    match global_slot m name with Ir.Svar id -> id | _ -> assert false
  in
  Alcotest.(check (list int))
    "globals behind buf" [ id "after" ] (Points_to.windowed_globals m);
  let conf = Points_to.confinement (Points_to.analyze m) in
  checkb "pointer behind the array -> not confined" false
    (Points_to.confined_slot conf (global_slot m "after"));
  checkb "pointer before the array -> confined" true
    (Points_to.confined_slot conf (global_slot m "before"))

(* ------------------- context-sensitive points-to ------------------- *)

module Context = Rsti_dataflow.Context
module Scope_escape = Rsti_dataflow.Scope_escape

(* Two same-typed registry entries routed through one helper: the
   insensitive solve merges the return channels (both escape through
   [report_stats]), k-limited cloning keeps them apart. *)
let registry_src =
  {|
struct stat_counter { long hits; long misses; };
extern void report_stats(struct stat_counter** slot);
struct stat_counter pub_stats;
struct stat_counter priv_stats;
struct stat_counter** pick(struct stat_counter** a) { return a; }
int main(void) {
  struct stat_counter* sp = &pub_stats;
  struct stat_counter* lp = &priv_stats;
  struct stat_counter** spp = pick(&sp);
  struct stat_counter** lpp = pick(&lp);
  long sum = 0;
  if (sum < 0) { report_stats(spp); }
  struct stat_counter* t = *lpp;
  t->hits = t->hits + 1;
  return 0;
}
|}

let recursion_src =
  {|
int depth(int n) { if (n > 0) { return depth(n - 1) + 1; } return 0; }
int main(void) { return depth(3) + depth(5); }
|}

let test_context_call_strings () =
  let m = compile registry_src in
  let cg = Callgraph.of_modul m in
  let c = Context.build ~k:2 m cg in
  (* pick: the empty context plus one per call site in main *)
  let pick_ctxs = Context.contexts_of c "pick" in
  checki "pick context count" 3 (List.length pick_ctxs);
  checkb "empty context always present" true
    (List.mem Context.empty_ctx pick_ctxs);
  Alcotest.(check string)
    "empty context keeps the bare name" "pick"
    (Context.clone_name c "pick" Context.empty_ctx);
  (* the two extends from main resolve to distinct non-empty contexts *)
  let s0 = Context.site c ~caller:"main" 0 in
  let s1 = Context.site c ~caller:"main" 1 in
  let c0 =
    Context.extend c ~caller:"main" ~ctx:Context.empty_ctx ~site:s0
      ~callee:"pick"
  in
  let c1 =
    Context.extend c ~caller:"main" ~ctx:Context.empty_ctx ~site:s1
      ~callee:"pick"
  in
  checkb "distinct sites, distinct contexts" true (c0 <> c1);
  checkb "extended contexts are non-empty" true
    (c0 <> Context.empty_ctx && c1 <> Context.empty_ctx);
  (* k = 0: every function keeps only the empty context *)
  let c_k0 = Context.build ~k:0 m cg in
  List.iter
    (fun fn ->
      checki (fn ^ " contexts at k=0") 1
        (List.length (Context.contexts_of c_k0 fn)))
    [ "pick"; "main" ]

let test_context_scc_collapse () =
  let m = compile recursion_src in
  let cg = Callgraph.of_modul m in
  let c = Context.build ~k:2 m cg in
  (* the recursive SCC does not extend call strings: depth's contexts
     are the empty one plus main's two entry sites, nothing deeper *)
  let ctxs = Context.contexts_of c "depth" in
  checki "depth context count" 3 (List.length ctxs);
  List.iter
    (fun ctx ->
      let s = Context.site c ~caller:"depth" 0 in
      checki
        (Printf.sprintf "SCC-internal extend keeps ctx %d" ctx)
        ctx
        (Context.extend c ~caller:"depth" ~ctx ~site:s ~callee:"depth"))
    ctxs

let subset label smaller bigger =
  List.iter
    (fun o ->
      checkb
        (Printf.sprintf "%s: %s refined away" label (Points_to.obj_to_string o))
        true (List.mem o bigger))
    smaller

(* Soundness of the cloning mode as a refinement: after projecting
   clones down to base objects, [Cloning k] never adds facts over
   [Insensitive], and [Cloning 0] is pointwise identical. *)
let prop_cloning_refines =
  QCheck.Test.make ~name:"points-to: cloning refines insensitive" ~count:12
    QCheck.(int_range 1 1000)
    (fun seed ->
      let src = Rsti_workloads.Generator.generate ~seed:(Int64.of_int seed) () in
      let m = Rsti_ir.Lower.compile ~file:"g.c" src in
      let pt_i = Points_to.analyze m in
      let pt_c = Points_to.analyze ~mode:(Points_to.Cloning 2) m in
      let pt_0 = Points_to.analyze ~mode:(Points_to.Cloning 0) m in
      subset "escaped" (Points_to.escaped_objects pt_c)
        (Points_to.escaped_objects pt_i);
      Alcotest.(check (list string))
        "k=0 escapes identical"
        (List.map Points_to.obj_to_string (Points_to.escaped_objects pt_i))
        (List.map Points_to.obj_to_string (Points_to.escaped_objects pt_0));
      List.iter
        (fun (f : Ir.func) ->
          let fn = f.Ir.name in
          subset (fn ^ " returns")
            (Points_to.returns pt_c ~fn)
            (Points_to.returns pt_i ~fn);
          Alcotest.(check (list string))
            (fn ^ " k=0 returns identical")
            (List.map Points_to.obj_to_string (Points_to.returns pt_i ~fn))
            (List.map Points_to.obj_to_string (Points_to.returns pt_0 ~fn)))
        m.Ir.m_funcs;
      (* attacker shrinks, so confinement verdicts only improve *)
      let conf_i = Points_to.confinement pt_i in
      let conf_c = Points_to.confinement pt_c in
      List.iter
        (fun (g : Ir.global_def) ->
          let s = Ir.Svar g.Ir.gvar.Rsti_minic.Tast.v_id in
          if Points_to.confined_slot conf_i s then
            checkb
              (Printf.sprintf "global %s stays confined under cloning"
                 g.Ir.gvar.Rsti_minic.Tast.v_name)
              true
              (Points_to.confined_slot conf_c s))
        m.Ir.m_globals;
      true)

let test_cloning_strict_gain () =
  let m = compile registry_src in
  let pt_i = Points_to.analyze m in
  let pt_c = Points_to.analyze ~mode:(Points_to.Cloning 2) m in
  checki "insensitive merges both registry cells" 2
    (List.length (Points_to.escaped_objects pt_i));
  checki "cloning separates the channels" 1
    (List.length (Points_to.escaped_objects pt_c));
  let sanon =
    Ir.Sanon Rsti_minic.Ctype.(Ptr (Struct "stat_counter"))
  in
  checkb "class blocked at insensitive" false
    (Points_to.confined_slot (Points_to.confinement pt_i) sanon);
  checkb "class confined under cloning" true
    (Points_to.confined_slot (Points_to.confinement pt_c) sanon)

(* ------------------ equivalence-class refinement -------------------- *)

module Equiv = Rsti_dataflow.Equiv

(* The modifier-partition refinement laws, over generated programs:
   pointwise, STL splits STWC splits STC (a finer mechanism never merges
   two slots a coarser one separates), so the class counts are monotone
   classes(STC) <= classes(STWC) <= classes(STL). The direction is fixed
   by construction — STC folds cast-merged types into one modifier, STL
   appends the storage address — and the analyzer must reproduce it on
   arbitrary inputs, not just the catalog. *)
let prop_equiv_refinement =
  QCheck.Test.make ~name:"equiv: STL refines STWC refines STC" ~count:12
    QCheck.(int_range 1 1000)
    (fun seed ->
      let src = Rsti_workloads.Generator.generate ~seed:(Int64.of_int seed) () in
      let m = Rsti_ir.Lower.compile ~file:"g.c" src in
      let anal = Analysis.analyze m in
      let run mech = Equiv.analyze anal m mech in
      let stwc = run RT.Stwc and stc = run RT.Stc and stl = run RT.Stl in
      let class_of (r : Equiv.result) =
        let tbl = Hashtbl.create 64 in
        List.iteri
          (fun i (c : Equiv.cls) ->
            List.iter
              (fun (mb : Equiv.member) ->
                Hashtbl.replace tbl
                  (Ir.slot_to_string mb.Equiv.mb_info.Analysis.slot)
                  i)
              c.Equiv.c_members)
          r.Equiv.r_classes;
        tbl
      in
      let pointwise label fine coarse =
        let coarse_of = class_of coarse in
        List.iter
          (fun (c : Equiv.cls) ->
            let key (mb : Equiv.member) =
              Ir.slot_to_string mb.Equiv.mb_info.Analysis.slot
            in
            match c.Equiv.c_members with
            | [] -> ()
            | first :: rest ->
                let c0 = Hashtbl.find coarse_of (key first) in
                List.iter
                  (fun mb ->
                    checki
                      (Printf.sprintf "%s: seed %d splits a class" label seed)
                      c0
                      (Hashtbl.find coarse_of (key mb)))
                  rest)
          fine.Equiv.r_classes
      in
      pointwise "STL within STWC" stl stwc;
      pointwise "STL within STC" stl stc;
      pointwise "STWC within STC" stwc stc;
      checkb "classes STC <= STWC" true
        (stc.Equiv.r_metrics.Equiv.m_classes
        <= stwc.Equiv.r_metrics.Equiv.m_classes);
      checkb "classes STWC <= STL" true
        (stwc.Equiv.r_metrics.Equiv.m_classes
        <= stl.Equiv.r_metrics.Equiv.m_classes);
      true)

(* Feasible gadget edges refine replay edges: every points-to precision
   can only shrink the attack surface, and sharper contexts shrink it
   further — feasible(Cloning 2) <= feasible(Insensitive) <= replay. *)
let prop_equiv_feasible_ladder =
  QCheck.Test.make ~name:"equiv: feasible edges refine replay edges"
    ~count:12
    QCheck.(int_range 1 1000)
    (fun seed ->
      let src = Rsti_workloads.Generator.generate ~seed:(Int64.of_int seed) () in
      let m = Rsti_ir.Lower.compile ~file:"g.c" src in
      let anal = Analysis.analyze m in
      let pt_i = Points_to.analyze m in
      let pt_c = Points_to.analyze ~mode:(Points_to.Cloning 2) m in
      List.iter
        (fun mech ->
          let oracle = Equiv.analyze anal m mech in
          let ins = Equiv.analyze ~points_to:pt_i anal m mech in
          let ctx = Equiv.analyze ~points_to:pt_c anal m mech in
          let feas (r : Equiv.result) = r.Equiv.r_metrics.Equiv.m_feasible_edges in
          let name = RT.mechanism_to_string mech in
          checkb (name ^ ": cloning <= insensitive") true
            (feas ctx <= feas ins);
          checkb (name ^ ": insensitive <= replay") true
            (feas ins <= oracle.Equiv.r_metrics.Equiv.m_replay_edges))
        [ RT.Stwc; RT.Stc; RT.Stl; RT.Parts ];
      true)

(* The edge metrics and the materialized gadget graph are one fact: the
   replay edges [class_edges] lists sum to [m_replay_edges], and those
   whose victim is [Equiv.feasible] (what the findings and the graph
   JSON report) sum to [m_feasible_edges] — at oracle, insensitive and
   cloning:2 precision, under every mechanism. *)
let prop_equiv_edge_sums =
  QCheck.Test.make ~name:"equiv: class edges sum to the edge metrics"
    ~count:12
    QCheck.(int_range 1 1000)
    (fun seed ->
      let src = Rsti_workloads.Generator.generate ~seed:(Int64.of_int seed) () in
      let m = Rsti_ir.Lower.compile ~file:"g.c" src in
      let anal = Analysis.analyze m in
      let refined mode =
        let pt = Points_to.analyze ~mode m in
        (Some pt, Some (Scope_escape.analyze ~points_to:pt m))
      in
      List.iter
        (fun (label, (points_to, scope)) ->
          List.iter
            (fun mech ->
              let r = Equiv.analyze ?points_to ?scope anal m mech in
              let sum edges =
                List.fold_left
                  (fun acc c -> acc + List.length (edges c))
                  0 r.Equiv.r_classes
              in
              let name = label ^ "/" ^ RT.mechanism_to_string mech in
              checki (name ^ ": replay edges")
                r.Equiv.r_metrics.Equiv.m_replay_edges
                (sum Equiv.class_edges);
              checki (name ^ ": feasible edges")
                r.Equiv.r_metrics.Equiv.m_feasible_edges
                (sum Rsti_staticcheck.Attack_surface.feasible_edges))
            [ RT.Stwc; RT.Stc; RT.Stl; RT.Parts ])
        [
          ("oracle", (None, None));
          ("insensitive", refined Points_to.Insensitive);
          ("cloning:2", refined (Points_to.Cloning 2));
        ];
      true)

(* --------------------------- scope escape -------------------------- *)

let scope_pos_src =
  {|
int *leak;
int *give(void) { int slot; slot = 7; leak = &slot; return &slot; }
int main(void) { int *p; p = give(); return *p; }
|}

let scope_neg_src =
  {|
int fill(int *dst) { *dst = 5; return 0; }
int main(void) { int local; local = 0; fill(&local); return local; }
|}

let test_scope_escape_positive () =
  let m = compile scope_pos_src in
  let pt = Points_to.analyze m in
  let sc = Scope_escape.analyze ~points_to:pt m in
  let escapes = Scope_escape.escapes sc in
  checkb "slot escapes" true
    (List.exists
       (fun (e : Scope_escape.escape) -> e.Scope_escape.local_name = "slot")
       escapes);
  checkb "a stored sink is reported" true
    (List.exists
       (fun e ->
         match e.Scope_escape.sink with Scope_escape.Stored _ -> true | _ -> false)
       escapes);
  checkb "the return sink is reported" true
    (List.exists (fun e -> e.Scope_escape.sink = Scope_escape.Returned) escapes);
  let stales = Scope_escape.stale_derefs sc in
  checkb "main derefs the dead frame" true
    (List.exists
       (fun s ->
         s.Scope_escape.use_func = "main" && s.Scope_escape.decl_func = "give"
         && s.Scope_escape.must)
       stales)

let test_scope_escape_negative () =
  let m = compile scope_neg_src in
  let pt = Points_to.analyze m in
  let sc = Scope_escape.analyze ~points_to:pt m in
  checki "downward &local is no escape" 0
    (List.length (Scope_escape.escapes sc));
  checki "no stale derefs" 0 (List.length (Scope_escape.stale_derefs sc))

(* The interprocedural completion: each local below leaks only inside a
   callee, so the defining function has no sink instruction and the
   points-to solution must supply the escape. *)
let escapes_of src name =
  let m = compile src in
  let sc = Scope_escape.analyze ~points_to:(Points_to.analyze m) m in
  ( m,
    List.filter
      (fun (e : Scope_escape.escape) -> e.Scope_escape.local_name = name)
      (Scope_escape.escapes sc) )

let test_scope_escape_stored_by_callee () =
  let m, es =
    escapes_of
      {|
int *keep;
int stash(int *a) { keep = a; return 0; }
int main(void) { int local; local = 1; stash(&local); return local; }
|}
      "local"
  in
  let keep = match global_slot m "keep" with Ir.Svar id -> id | _ -> 0 in
  checki "one escape" 1 (List.length es);
  checkb "stored into keep" true
    (List.for_all
       (fun (e : Scope_escape.escape) ->
         e.Scope_escape.func = "main"
         && e.Scope_escape.sink
            = Scope_escape.Stored (Points_to.obj_to_string (Points_to.Ovar keep)))
       es)

let test_scope_escape_returned_through_callee () =
  let _, es =
    escapes_of
      {|
int *same(int *x) { return x; }
int *give(void) { int slot; slot = 7; return same(&slot); }
int main(void) { int *p; p = give(); return 0; }
|}
      "slot"
  in
  checki "one escape" 1 (List.length es);
  checkb "returned by give" true
    (List.for_all
       (fun (e : Scope_escape.escape) ->
         e.Scope_escape.func = "give"
         && e.Scope_escape.sink = Scope_escape.Returned)
       es)

let test_scope_escape_extern_wins () =
  let _, es =
    escapes_of
      {|
extern void sink(int *h);
int *keep;
int both(int *a) { keep = a; sink(a); return 0; }
int main(void) { int local; local = 1; both(&local); return local; }
|}
      "local"
  in
  checki "one escape" 1 (List.length es);
  checkb "passed to extern, not stored" true
    (List.for_all
       (fun (e : Scope_escape.escape) ->
         e.Scope_escape.sink = Scope_escape.Passed_extern "<extern>")
       es)

(* ------------------ elision precision on workloads ----------------- *)

(* The headline acceptance property: provably-safe counts are monotone
   along the precision ladder on every SPEC2006 workload, and k=2
   cloning is a strict improvement where the insensitive solve merges
   registry-style return channels. *)
let test_elide_precision_monotone () =
  let strict = ref [] in
  List.iter
    (fun (w : Rsti_workloads.Workload.t) ->
      let src = Rsti_workloads.Workload.analysis_source w in
      let m = Rsti_ir.Lower.compile ~file:(w.name ^ ".c") src in
      let anal = Analysis.analyze m in
      let safe e = (Elide.summary e).Elide.safe in
      let syn = safe (Elide.analyze anal m) in
      let pt = safe (Elide.analyze ~points_to:(Points_to.analyze m) anal m) in
      let pt_c = Points_to.analyze ~mode:(Points_to.Cloning 2) m in
      let scope = Scope_escape.analyze ~points_to:pt_c m in
      let cs = safe (Elide.analyze ~points_to:pt_c ~scope anal m) in
      checkb (w.name ^ ": points-to >= syntactic") true (pt >= syn);
      checkb (w.name ^ ": cloning >= points-to") true (cs >= pt);
      if cs > pt then strict := w.name :: !strict)
    Rsti_workloads.Spec2006.all;
  List.iter
    (fun w ->
      checkb (w ^ ": cloning strictly gains") true (List.mem w !strict))
    [ "perlbench"; "xalancbmk" ]

(* ------------------------ validator: green ------------------------- *)

let mechanisms = [ RT.Stwc; RT.Stc; RT.Stl ]

let modes =
  [ Elide.Off; Elide.Syntactic; Elide.With_points_to; Elide.With_context 2 ]

(* Every module Instrument produces — all SPEC2006 workloads, all three
   PAC mechanisms, all three elision precisions — satisfies the
   signed-at-rest typestate. The pipeline runs uncached, so each check
   sees a fresh pass. *)
let test_validator_green_on_workloads () =
  let config = { Pipeline.default with Pipeline.cache = false } in
  List.iter
    (fun (w : Rsti_workloads.Workload.t) ->
      let a =
        Pipeline.analyze ~config
          (Pipeline.compile ~config
             (Pipeline.source ~file:(w.name ^ ".c")
                (Rsti_workloads.Workload.analysis_source w)))
      in
      List.iter
        (fun mech ->
          List.iter
            (fun mode ->
              let config = { config with Pipeline.elision = mode } in
              let rep =
                Pipeline.validation (Pipeline.instrument ~config mech a)
              in
              if not (Validate.ok rep) then
                Alcotest.failf "%s/%s/%s:\n%s" w.name
                  (RT.mechanism_to_string mech)
                  (Elide.mode_to_string mode)
                  (Validate.report_to_string rep))
            modes)
        mechanisms)
    Rsti_workloads.Spec2006.all

(* ------------------------- validator: red -------------------------- *)

(* Replace the first instruction, in module order, that [f] rewrites. *)
let rewrite_first f (m : Ir.modul) =
  let hit = ref false in
  let block (b : Ir.block) =
    let rec go acc = function
      | [] -> b
      | ins :: rest -> (
          match f ins with
          | Some ins' ->
              hit := true;
              { b with Ir.instrs = List.rev_append acc (ins' :: rest) }
          | None -> go (ins :: acc) rest)
    in
    if !hit then b else go [] b.Ir.instrs
  in
  let m_funcs =
    List.map
      (fun (fn : Ir.func) ->
        { fn with Ir.blocks = Array.map block fn.Ir.blocks })
      m.Ir.m_funcs
  in
  if !hit then Some { m with Ir.m_funcs } else None

let modifier_off_by_one =
  let bump = function
    | Ir.Mconst h -> Ir.Mconst (Int64.succ h)
    | Ir.Mloc h -> Ir.Mloc (Int64.succ h)
  in
  rewrite_first (fun ins ->
      match ins.Ir.i with
      | Ir.Pac ({ p_kind = Ir.Ksign | Ir.Kauth; _ } as p) ->
          Some { ins with Ir.i = Ir.Pac { p with Ir.p_mod = bump p.Ir.p_mod } }
      | _ -> None)

let auth_to_strip =
  rewrite_first (fun ins ->
      match ins.Ir.i with
      | Ir.Pac ({ p_kind = Ir.Kauth; _ } as p) ->
          Some { ins with Ir.i = Ir.Pac { p with Ir.p_kind = Ir.Kstrip } }
      | _ -> None)

(* A copy of the first Binop, in the first function that has one, at
   the head of that function's last block: its register is then defined
   twice. *)
let copied_definition (m : Ir.modul) =
  let binop (fn : Ir.func) =
    Array.to_list fn.Ir.blocks
    |> List.concat_map (fun (b : Ir.block) -> b.Ir.instrs)
    |> List.find_opt (fun (ins : Ir.instr) ->
           match ins.Ir.i with Ir.Binop _ -> true | _ -> false)
  in
  match
    List.find_map (fun fn -> Option.map (fun i -> (fn, i)) (binop fn)) m.Ir.m_funcs
  with
  | Some (fn, ({ Ir.i = Ir.Binop { dst; _ }; _ } as ins)) ->
      let blocks = Array.copy fn.Ir.blocks in
      let last = Array.length blocks - 1 in
      blocks.(last) <-
        { (blocks.(last)) with Ir.instrs = ins :: blocks.(last).Ir.instrs };
      let m_funcs =
        List.map (fun f -> if f == fn then { fn with Ir.blocks } else f) m.Ir.m_funcs
      in
      Some
        ( { m with Ir.m_funcs },
          Some (Printf.sprintf "register %%r%d defined twice" dst) )
  | _ -> None

(* Each mutant kind: a module rewrite, and the issue its report must
   carry (any issue when [None]). *)
let mutants =
  let plain f m = Option.map (fun m -> (m, None)) (f m) in
  [
    ("dropped sign", plain Validate.break_one_sign);
    ("copied definition", copied_definition);
    ("modifier off by one", plain modifier_off_by_one);
    ("auth turned into a strip", plain auth_to_strip);
  ]

(* Every mutant kind of every SPEC2006 kernel under each PAC mechanism
   (elision off) must be rejected. A dropped sign leaves the slot's auths
   behind, so the all-or-nothing summary trips; a wrong modifier and a
   strip in an auth's place fail the per-instruction checks; a second
   definition of a register is reported as such. *)
let test_validator_red_on_mutants () =
  List.iter
    (fun (w : Rsti_workloads.Workload.t) ->
      let src = Rsti_workloads.Workload.analysis_source w in
      let m = Rsti_ir.Lower.compile ~file:(w.name ^ ".c") src in
      let anal = Analysis.analyze m in
      List.iter
        (fun mech ->
          let r = Instrument.instrument mech anal m in
          List.iter
            (fun (kind, mutate) ->
              let where =
                Printf.sprintf "%s/%s/%s" w.name
                  (RT.mechanism_to_string mech) kind
              in
              match mutate r.Instrument.modul with
              | None -> Alcotest.failf "%s: no such mutant" where
              | Some (bad, expected) -> (
                  let rep = Validate.check anal mech bad in
                  checkb (where ^ " rejected") false (Validate.ok rep);
                  match expected with
                  | Some what ->
                      checkb (where ^ ": " ^ what) true
                        (List.exists
                           (fun (i : Validate.issue) -> i.Validate.i_what = what)
                           rep.Validate.issues)
                  | None -> ()))
            mutants)
        mechanisms)
    Rsti_workloads.Spec2006.all

(* ---------------------- validator: attack victims ------------------ *)

(* The Table-1 victims through the engine pipeline: validator green for
   every mechanism x elision precision, and the one-sign-removed mutant
   rejected wherever it exists. *)
let test_validator_attack_victims () =
  List.iter
    (fun (sc, per, broken) ->
      List.iter
        (fun (mech, mode, rep) ->
          if not (Validate.ok rep) then
            Alcotest.failf "%s/%s/%s:\n%s" sc.Rsti_attacks.Scenario.id
              (RT.mechanism_to_string mech)
              (Elide.mode_to_string mode)
              (Validate.report_to_string rep))
        per;
      match broken with
      | Some false ->
          Alcotest.failf "%s: broken instrumentation passed"
            sc.Rsti_attacks.Scenario.id
      | _ -> ())
    (Rsti_report.Security.validation_results ())

let tests =
  [
    Alcotest.test_case "cfg: succ/pred inverse, rpo from entry" `Quick
      test_cfg_shape;
    Alcotest.test_case "solver: fixpoint over loop and branch merge" `Quick
      test_solver_fixpoint;
    Alcotest.test_case "callgraph: bottom-up order and reachability" `Quick
      test_callgraph_bottom_up;
    Alcotest.test_case "points-to: confinement separates escapees" `Quick
      test_points_to_confinement;
    Alcotest.test_case "points-to: confinement leaves the solution as is"
      `Quick test_points_to_confinement_read_only;
    Alcotest.test_case "points-to: confinement seeds the overflow window"
      `Quick test_points_to_confinement_window;
    Alcotest.test_case "context: call strings and k=0 degeneration" `Quick
      test_context_call_strings;
    Alcotest.test_case "context: recursion collapses to one context" `Quick
      test_context_scc_collapse;
    QCheck_alcotest.to_alcotest prop_cloning_refines;
    Alcotest.test_case "points-to: cloning splits merged return channels"
      `Quick test_cloning_strict_gain;
    QCheck_alcotest.to_alcotest prop_equiv_refinement;
    QCheck_alcotest.to_alcotest prop_equiv_feasible_ladder;
    QCheck_alcotest.to_alcotest prop_equiv_edge_sums;
    Alcotest.test_case "scope-escape: leaked local and stale deref" `Quick
      test_scope_escape_positive;
    Alcotest.test_case "scope-escape: downward pass is clean" `Quick
      test_scope_escape_negative;
    Alcotest.test_case "scope-escape: stored into a global by a callee"
      `Quick test_scope_escape_stored_by_callee;
    Alcotest.test_case "scope-escape: returned through an identity callee"
      `Quick test_scope_escape_returned_through_callee;
    Alcotest.test_case "scope-escape: extern wins over a stored sink" `Quick
      test_scope_escape_extern_wins;
    Alcotest.test_case "elide: precision ladder monotone on SPEC2006" `Slow
      test_elide_precision_monotone;
    Alcotest.test_case
      "validate: green on all workloads x mechanisms x elide modes" `Slow
      test_validator_green_on_workloads;
    Alcotest.test_case "validate: red on every mutant kind" `Slow
      test_validator_red_on_mutants;
    Alcotest.test_case "validate: Table-1 victims through the pipeline" `Slow
      test_validator_attack_victims;
  ]
