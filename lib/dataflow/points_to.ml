(* Inclusion-based (Andersen) points-to analysis over the IR, solved
   with the {!Worklist} engine.

   Abstract objects are field-sensitive and instance-summarized: every
   named variable (local, param, global) is one object, every anonymous
   alloca site one object, every (struct, field) pair one object shared
   by all instances (matching the analysis' [Sfield] slots), and every
   extern call site one heap object. Each object has one "content" cell
   holding the pointers stored into it; registers and the per-function
   return channel are the other pointer nodes.

   Constraint generation walks functions in the call graph's bottom-up
   order (callees first — deterministic and convergence-friendly);
   loads/stores through pointers and indirect calls are the classic
   complex constraints, re-evaluated as the address node's set grows.

   Two precision modes share the machinery. [Insensitive] is the plain
   whole-program solve. [Cloning k] layers {!Context}'s k-limited call
   strings on top: every (function, context) pair gets its own register
   and return nodes (the clone's name qualifies [Nreg]/[Nret]), while
   abstract objects stay context-free — so the cloned solution projects
   onto the insensitive one by erasing the qualifier, and is a
   refinement of it. Parameter binding routes argument flows to the
   callee clone selected by {!Context.extend}, which is what keeps
   differently-contexted calls to one helper from merging. Heap objects
   are keyed by stable call-site ids ({!Context.call_sites}) so object
   identity is mode-independent.

   On top of the raw sets sits the attacker model the elision client
   consumes ({!confinement}): attacker-writable memory is the heap
   (extern allocations), extern data objects, globals behind a
   linear-overflow window, everything whose address was passed to an
   external function or laundered through int<->pointer casts — closed
   under stored-pointer contents (a pointer at rest in attacker memory
   makes its target attacker-reachable). A slot is *confined* when no
   attacker-writable object can back it, which is what turns the
   syntactic checker's "a cast/escape appears somewhere in the
   component" obligations into "an attacker-writable store can actually
   reach this slot". *)

module Ir = Rsti_ir.Ir
module Ctype = Rsti_minic.Ctype

type mode = Insensitive | Cloning of int

let mode_to_string = function
  | Insensitive -> "insensitive"
  | Cloning k -> Printf.sprintf "cloning:%d" k

let mode_of_string = function
  | "insensitive" -> Some Insensitive
  | "cloning" -> Some (Cloning 2)
  | s -> (
      match String.index_opt s ':' with
      | Some i
        when String.sub s 0 i = "cloning" -> (
          match int_of_string_opt (String.sub s (i + 1) (String.length s - i - 1)) with
          | Some k when k >= 0 -> Some (Cloning k)
          | _ -> None)
      | _ -> None)

type obj =
  | Ovar of int                (* named variable/global storage (var id) *)
  | Otmp of string * int       (* anonymous alloca site: (function, reg) *)
  | Ofield of string * string  (* struct field cell, instance-summarized *)
  | Oheap of string * int      (* extern allocation: (callee, site id) *)
  | Oextern of string          (* extern data object *)
  | Ostr                       (* the string table (read-only) *)
  | Ofun of string             (* a function's code *)
  | Ounknown                   (* int-to-pointer launder: anything *)
  | Octx of obj * int
      (* a cloned frame cell: the [Ovar]/[Otmp] storage of a local or
         parameter in one non-empty calling context. Without this,
         every clone of a function would spill its parameters into the
         one shared frame object and the return channel would merge
         right back — the per-context cell is what actually keeps
         differently-contexted calls apart. Queries erase the wrapper
         ({!base_obj}), so the public view stays context-free. *)

let rec obj_to_string = function
  | Ovar id -> Printf.sprintf "var#%d" id
  | Otmp (f, r) -> Printf.sprintf "tmp:%s/%d" f r
  | Ofield (s, f) -> Printf.sprintf "%s.%s" s f
  | Oheap (f, i) -> Printf.sprintf "heap:%s#%d" f i
  | Oextern n -> "extern:" ^ n
  | Ostr -> "str"
  | Ofun f -> "fun:" ^ f
  | Ounknown -> "unknown"
  | Octx (o, c) -> Printf.sprintf "%s@%d" (obj_to_string o) c

(* Project a (possibly cloned) object onto the context-free base the
   insensitive mode and every query speak in. *)
let rec base_obj = function Octx (o, _) -> base_obj o | o -> o

type node =
  | Nreg of string * int (* virtual register, per function clone *)
  | Ncell of obj         (* the pointer content stored in an object *)
  | Nret of string       (* return-value channel of a function clone *)

module IntSet = Set.Make (Int)

type t = {
  modul : Ir.modul;
  mode : mode;
  ctx : Context.t option; (* Some iff mode is Cloning *)
  (* interning *)
  node_ids : (node, int) Hashtbl.t;
  mutable nodes : node array;
  mutable n_nodes : int;
  obj_ids : (obj, int) Hashtbl.t;
  mutable objs : obj array;
  mutable n_objs : int;
  (* the constraint graph *)
  mutable pts : IntSet.t array;       (* node id -> object ids *)
  mutable copy_edges : int list array; (* node id -> successor node ids *)
  (* complex constraints attached to an address/function-pointer node *)
  mutable loads_at : int list array;   (* addr node -> dst node ids *)
  mutable stores_at : (int * int) list array;
      (* addr node -> (src node, store site id) *)
  mutable geps_at : string list array; (* base node -> struct names *)
  mutable calls_at :
    (Ir.value list * int option * string * string * int * int) list array;
      (* fnptr node -> (args, dst node, caller base, caller clone,
         caller context, call site) for indirect calls *)
  (* side tables *)
  variants : (obj, obj list ref) Hashtbl.t; (* base frame obj -> Octx clones *)
  instances : (string, IntSet.t ref) Hashtbl.t; (* struct -> base objects *)
  mutable escaped : IntSet.t ref; (* objects handed to extern code *)
  globals_by_name : (string, int) Hashtbl.t; (* global name -> var id *)
  defined : (string, Ir.func) Hashtbl.t;
  (* per-Sanon-class address nodes: type-class key -> addr node ids *)
  sanon_addrs : (string, IntSet.t ref) Hashtbl.t;
  (* stable call-site ids, shared by both modes (Oheap identity) *)
  sites : (string * int, int) Hashtbl.t;
  mutable n_clones : int;
  mutable iterations : int;
  work : Worklist.t; (* the solver's queue; per-analysis, domain-safe *)
}

(* ---------------------------- interning --------------------------- *)

let node_id t n =
  match Hashtbl.find_opt t.node_ids n with
  | Some i -> i
  | None ->
      let i = t.n_nodes in
      Hashtbl.replace t.node_ids n i;
      if i >= Array.length t.nodes then begin
        let grow a fill = Array.append a (Array.make (max 64 (Array.length a)) fill) in
        t.nodes <- grow t.nodes (Nret "");
        t.pts <- grow t.pts IntSet.empty;
        t.copy_edges <- grow t.copy_edges [];
        t.loads_at <- grow t.loads_at [];
        t.stores_at <- grow t.stores_at [];
        t.geps_at <- grow t.geps_at [];
        t.calls_at <- grow t.calls_at []
      end;
      t.nodes.(i) <- n;
      t.n_nodes <- i + 1;
      i

let obj_id t o =
  match Hashtbl.find_opt t.obj_ids o with
  | Some i -> i
  | None ->
      let i = t.n_objs in
      Hashtbl.replace t.obj_ids o i;
      if i >= Array.length t.objs then
        t.objs <- Array.append t.objs (Array.make (max 64 (Array.length t.objs)) Ostr);
      t.objs.(i) <- o;
      t.n_objs <- i + 1;
      (match o with
      | Octx _ -> (
          let b = base_obj o in
          match Hashtbl.find_opt t.variants b with
          | Some l -> l := o :: !l
          | None -> Hashtbl.replace t.variants b (ref [ o ]))
      | _ -> ());
      i

(* [o] itself plus every per-context clone of it that was interned. *)
let with_variants t o =
  match Hashtbl.find_opt t.variants o with Some l -> o :: !l | None -> [ o ]

let sanon_key ty = Ctype.to_string (Ctype.strip_all_quals ty)

let sanon_set t ty =
  let k = sanon_key ty in
  match Hashtbl.find_opt t.sanon_addrs k with
  | Some s -> s
  | None ->
      let s = ref IntSet.empty in
      Hashtbl.replace t.sanon_addrs k s;
      s

let instance_set t sname =
  match Hashtbl.find_opt t.instances sname with
  | Some s -> s
  | None ->
      let s = ref IntSet.empty in
      Hashtbl.replace t.instances sname s;
      s

(* ------------------------- constraint solving --------------------- *)

let create ?(mode = Insensitive) ?ctx (m : Ir.modul) =
  let sites, _ = Context.call_sites m in
  let t =
    {
      modul = m;
      mode;
      ctx;
      node_ids = Hashtbl.create 256;
      nodes = Array.make 256 (Nret "");
      n_nodes = 0;
      obj_ids = Hashtbl.create 128;
      objs = Array.make 128 Ostr;
      n_objs = 0;
      pts = Array.make 256 IntSet.empty;
      copy_edges = Array.make 256 [];
      loads_at = Array.make 256 [];
      stores_at = Array.make 256 [];
      geps_at = Array.make 256 [];
      calls_at = Array.make 256 [];
      variants = Hashtbl.create 32;
      instances = Hashtbl.create 32;
      escaped = ref IntSet.empty;
      globals_by_name = Hashtbl.create 32;
      defined = Hashtbl.create 32;
      sanon_addrs = Hashtbl.create 32;
      sites;
      n_clones = 0;
      iterations = 0;
      work = Worklist.create 1024;
    }
  in
  List.iter
    (fun (g : Ir.global_def) ->
      Hashtbl.replace t.globals_by_name g.Ir.gvar.Rsti_minic.Tast.v_name
        g.Ir.gvar.Rsti_minic.Tast.v_id)
    m.Ir.m_globals;
  List.iter (fun (f : Ir.func) -> Hashtbl.replace t.defined f.Ir.name f) m.Ir.m_funcs;
  t

let add_obj t n o =
  if not (IntSet.mem o t.pts.(n)) then begin
    t.pts.(n) <- IntSet.add o t.pts.(n);
    Worklist.push t.work n
  end

let add_objs t n os =
  let merged = IntSet.union t.pts.(n) os in
  if not (IntSet.equal merged t.pts.(n)) then begin
    t.pts.(n) <- merged;
    Worklist.push t.work n
  end

let add_copy t a b =
  if not (List.mem b t.copy_edges.(a)) then begin
    t.copy_edges.(a) <- b :: t.copy_edges.(a);
    if not (IntSet.is_empty t.pts.(a)) then Worklist.push t.work a
  end

(* The address-of facts a bare value contributes. *)
let value_objs t ~fn:_ (v : Ir.value) =
  match v with
  | Ir.Global name -> (
      match Hashtbl.find_opt t.globals_by_name name with
      | Some id -> [ obj_id t (Ovar id) ]
      | None -> [ obj_id t (Oextern name) ])
  | Ir.Funcaddr f -> [ obj_id t (Ofun f) ]
  | Ir.Str _ -> [ obj_id t Ostr ]
  | Ir.Imm _ | Ir.Fimm _ | Ir.Null | Ir.Reg _ -> []

(* Route a value into a node: registers become copy edges, address
   constants become base facts. [fn] is the clone the value is
   evaluated in — register nodes are per-clone. *)
let flow_value t ~fn v ~into =
  match v with
  | Ir.Reg r -> add_copy t (node_id t (Nreg (fn, r))) into
  | _ -> List.iter (fun o -> add_obj t into o) (value_objs t ~fn v)

let content_node t o =
  match t.objs.(o) with
  | Ofun _ -> None (* code has no pointer content cell *)
  | o -> Some (node_id t (Ncell o))

let mark_escaped t o =
  if not (IntSet.mem o !(t.escaped)) then begin
    t.escaped := IntSet.add o !(t.escaped);
    (* contents of escaped objects flow onward during closure, not here *)
    ()
  end

(* Pointer arguments handed to external code: the objects escape. *)
let escape_value t ~fn v =
  match v with
  | Ir.Reg r ->
      let n = node_id t (Nreg (fn, r)) in
      (* record as a pseudo-store into an "escape sink": simplest is to
         walk at solve time; we instead re-use stores_at with a sink. *)
      IntSet.iter (fun o -> mark_escaped t o) t.pts.(n);
      (* future growth: tag the node so new objects escape too *)
      t.geps_at.(n) <- "!escape" :: t.geps_at.(n);
      Worklist.push t.work n
  | _ -> List.iter (fun o -> mark_escaped t o) (value_objs t ~fn v)

(* The clone a call binds its callee under: the caller's context
   extended by the call site (insensitive mode: the callee itself). *)
let callee_clone t ~caller ~ctxid ~site callee =
  match t.ctx with
  | None -> callee
  | Some c ->
      Context.clone_name c callee
        (Context.extend c ~caller ~ctx:ctxid ~site ~callee)

let bind_call t ~caller ~caller_clone ~ctxid ~site args dst (callee : string) =
  match Hashtbl.find_opt t.defined callee with
  | Some callee_fn ->
      let clone = callee_clone t ~caller ~ctxid ~site callee in
      List.iteri
        (fun i arg ->
          (* parameter i occupies register i in the callee's entry *)
          if i < List.length callee_fn.Ir.params then
            flow_value t ~fn:caller_clone arg
              ~into:(node_id t (Nreg (clone, i))))
        args;
      (match dst with
      | Some d -> add_copy t (node_id t (Nret clone)) d
      | None -> ())
  | None ->
      (* external function: arguments escape, result is one heap object
         per static call site (stable ids keep both modes agreeing) *)
      List.iter (fun a -> escape_value t ~fn:caller_clone a) args;
      (match dst with
      | Some d -> add_obj t d (obj_id t (Oheap (callee, site)))
      | None -> ())

(* Frame storage (parameter spills and locals) must be per-clone: the
   ε clone keeps the bare base object, every other context gets its own
   [Octx] cell. *)
let frame_obj ~ctxid o = if ctxid = Context.empty_ctx then o else Octx (o, ctxid)

(* Generate constraints for one clone of a function: register and
   return nodes carry the clone name, abstract objects the base name. *)
let gen_function t (fn : Ir.func) ~clone ~ctxid =
  let fname = fn.Ir.name in
  let reg r = node_id t (Nreg (clone, r)) in
  let nth_call = ref 0 in
  t.n_clones <- t.n_clones + 1;
  Ir.iter_instrs
    (fun ins ->
      match ins.Ir.i with
      | Ir.Alloca { dst; dv = Some d; _ } ->
          add_obj t (reg dst) (obj_id t (frame_obj ~ctxid (Ovar d.Rsti_ir.Dinfo.dv_id)))
      | Ir.Alloca { dst; dv = None; _ } ->
          add_obj t (reg dst) (obj_id t (frame_obj ~ctxid (Otmp (fname, dst))))
      | Ir.Load { dst; addr; ty; slot } ->
          (match slot with
          | Ir.Sanon sty when Ctype.is_pointer ty -> (
              match addr with
              | Ir.Reg r -> (sanon_set t sty) := IntSet.add (reg r) !(sanon_set t sty)
              | _ -> ())
          | _ -> ());
          if Ctype.is_pointer ty then begin
            match addr with
            | Ir.Reg r ->
                let a = reg r in
                t.loads_at.(a) <- reg dst :: t.loads_at.(a);
                if not (IntSet.is_empty t.pts.(a)) then Worklist.push t.work a
            | _ ->
                List.iter
                  (fun o ->
                    match content_node t o with
                    | Some c -> add_copy t c (reg dst)
                    | None -> ())
                  (value_objs t ~fn:clone addr)
          end
      | Ir.Store { src; addr; ty; slot } ->
          (match slot with
          | Ir.Sanon sty when Ctype.is_pointer ty -> (
              match addr with
              | Ir.Reg r -> (sanon_set t sty) := IntSet.add (reg r) !(sanon_set t sty)
              | _ -> ())
          | _ -> ());
          if Ctype.is_pointer ty then begin
            match addr with
            | Ir.Reg r -> (
                let a = reg r in
                match src with
                | Ir.Reg s ->
                    t.stores_at.(a) <- (reg s, 0) :: t.stores_at.(a);
                    if not (IntSet.is_empty t.pts.(a)) then Worklist.push t.work a
                | _ ->
                    let objs = value_objs t ~fn:clone src in
                    if objs <> [] then begin
                      (* constant address stored through a pointer: model
                         with a synthetic source node *)
                      let s = node_id t (Nreg (clone, -1 - Hashtbl.hash ins)) in
                      List.iter (fun o -> add_obj t s o) objs;
                      t.stores_at.(a) <- (s, 0) :: t.stores_at.(a);
                      Worklist.push t.work a
                    end)
            | _ ->
                List.iter
                  (fun o ->
                    match content_node t o with
                    | Some c -> flow_value t ~fn:clone src ~into:c
                    | None -> ())
                  (value_objs t ~fn:clone addr)
          end
      | Ir.Gep { dst; base; sname; field } ->
          add_obj t (reg dst) (obj_id t (Ofield (sname, field)));
          (match base with
          | Ir.Reg r ->
              let b = reg r in
              t.geps_at.(b) <- sname :: t.geps_at.(b);
              if not (IntSet.is_empty t.pts.(b)) then Worklist.push t.work b
          | _ ->
              List.iter
                (fun o -> instance_set t sname := IntSet.add o !(instance_set t sname))
                (value_objs t ~fn:clone base))
      | Ir.Gepidx { dst; base; _ } ->
          (* an element address points into the same object *)
          flow_value t ~fn:clone base ~into:(reg dst)
      | Ir.Bitcast { dst; src; _ } -> flow_value t ~fn:clone src ~into:(reg dst)
      | Ir.Cast_num { dst; src; from_ty; to_ty } ->
          (* pointer laundered through an integer: everything it points
             to escapes; an integer cast back to a pointer can point
             anywhere *)
          if Ctype.is_pointer (Ctype.strip_all_quals from_ty) then
            escape_value t ~fn:clone src;
          if Ctype.is_pointer (Ctype.strip_all_quals to_ty) then
            add_obj t (reg dst) (obj_id t Ounknown)
      | Ir.Call { dst; callee; args; _ } -> (
          let site =
            match Hashtbl.find_opt t.sites (fname, !nth_call) with
            | Some s -> s
            | None -> -1
          in
          incr nth_call;
          let dstn = Option.map reg dst in
          match callee with
          | Ir.Direct f ->
              bind_call t ~caller:fname ~caller_clone:clone ~ctxid ~site args
                dstn f
          | Ir.Indirect v -> (
              match v with
              | Ir.Reg r ->
                  let n = reg r in
                  t.calls_at.(n) <-
                    (args, dstn, fname, clone, ctxid, site) :: t.calls_at.(n);
                  if not (IntSet.is_empty t.pts.(n)) then Worklist.push t.work n
              | Ir.Funcaddr f ->
                  bind_call t ~caller:fname ~caller_clone:clone ~ctxid ~site
                    args dstn f
              | _ -> ()))
      | Ir.Binop _ | Ir.Neg _ | Ir.Lognot _ | Ir.Bitnot _ | Ir.Pac _ | Ir.Pp _ ->
          ())
    fn;
  (* the return channel *)
  Array.iter
    (fun (b : Ir.block) ->
      match b.Ir.term with
      | Ir.Ret (Some v) -> flow_value t ~fn:clone v ~into:(node_id t (Nret clone))
      | _ -> ())
    fn.Ir.blocks

let solve t =
  let processed_calls : (int * int, unit) Hashtbl.t = Hashtbl.create 64 in
  let rec drain () =
    match Worklist.pop t.work with
    | None -> ()
    | Some n ->
        t.iterations <- t.iterations + 1;
        let set = t.pts.(n) in
        (* copy edges *)
        List.iter (fun s -> add_objs t s set) t.copy_edges.(n);
        (* complex: loads through n *)
        List.iter
          (fun dst ->
            IntSet.iter
              (fun o ->
                match content_node t o with
                | Some c -> add_copy t c dst
                | None -> ())
              set)
          t.loads_at.(n);
        (* complex: stores through n *)
        List.iter
          (fun (src, _) ->
            IntSet.iter
              (fun o ->
                match content_node t o with
                | Some c -> add_copy t src c
                | None -> ())
              set)
          t.stores_at.(n);
        (* complex: geps and escape sinks on n *)
        List.iter
          (fun sname ->
            if sname = "!escape" then
              IntSet.iter (fun o -> mark_escaped t o) set
            else
              let is = instance_set t sname in
              let merged = IntSet.union !is set in
              if not (IntSet.equal merged !is) then is := merged)
          t.geps_at.(n);
        (* complex: indirect calls through n *)
        List.iter
          (fun (args, dstn, caller, caller_clone, ctxid, site) ->
            IntSet.iter
              (fun o ->
                match t.objs.(o) with
                | Ofun f
                  when not
                         (Hashtbl.mem processed_calls
                            (n, Hashtbl.hash (f, caller_clone, site))) ->
                    Hashtbl.replace processed_calls
                      (n, Hashtbl.hash (f, caller_clone, site)) ();
                    bind_call t ~caller ~caller_clone ~ctxid ~site args dstn f
                | _ -> ())
              set)
          t.calls_at.(n);
        drain ()
  in
  (* run to fixpoint; new edges/facts push nodes back onto the list *)
  drain ()

let c_analyses = Rsti_observe.Observe.Metrics.counter "dataflow.points_to.analyses"
let c_iterations = Rsti_observe.Observe.Metrics.counter "dataflow.points_to.iterations"
let h_iterations =
  Rsti_observe.Observe.Metrics.histogram "dataflow.points_to.iterations_per_solve"

let analyze ?(mode = Insensitive) (m : Ir.modul) =
  let module Observe = Rsti_observe.Observe in
  let sp = Observe.Span.enter "dataflow.points_to" in
  let cg = Callgraph.of_modul m in
  let ctx =
    match mode with
    | Insensitive -> None
    | Cloning k -> Some (Context.build ~k m cg)
  in
  let t = create ~mode ?ctx m in
  (* bottom-up: callees' facts exist before callers copy into them *)
  let by_name = Hashtbl.create 64 in
  List.iter (fun (f : Ir.func) -> Hashtbl.replace by_name f.Ir.name f) m.Ir.m_funcs;
  List.iter
    (fun name ->
      match Hashtbl.find_opt by_name name with
      | Some fn -> (
          match ctx with
          | None -> gen_function t fn ~clone:name ~ctxid:Context.empty_ctx
          | Some c ->
              List.iter
                (fun cid ->
                  gen_function t fn ~clone:(Context.clone_name c name cid)
                    ~ctxid:cid)
                (Context.contexts_of c name))
      | None -> ())
    (Callgraph.bottom_up cg);
  solve t;
  Observe.Metrics.incr c_analyses;
  Observe.Metrics.add c_iterations t.iterations;
  Observe.Metrics.observe h_iterations (float_of_int t.iterations);
  if sp != Observe.Span.none then begin
    Observe.Span.add_attr sp "mode" (mode_to_string mode);
    Observe.Span.add_attr sp "nodes" (string_of_int t.n_nodes);
    Observe.Span.add_attr sp "objects" (string_of_int t.n_objs);
    Observe.Span.add_attr sp "clones" (string_of_int t.n_clones);
    Observe.Span.add_attr sp "iterations" (string_of_int t.iterations)
  end;
  Observe.Span.exit sp;
  t

(* ----------------------------- queries ---------------------------- *)

let mode t = t.mode

let clones_of t fn =
  match t.ctx with
  | None -> [ fn ]
  | Some c -> List.map (Context.clone_name c fn) (Context.contexts_of c fn)

(* Every query answers in context-free base objects: cloned frame cells
   are projected down, so clients never see an [Octx]. *)
let objs_of_ids t ids =
  List.sort_uniq compare
    (List.map (fun o -> base_obj t.objs.(o)) (IntSet.elements ids))

let points_to t ~fn (v : Ir.value) =
  match v with
  | Ir.Reg r ->
      let ids =
        List.fold_left
          (fun acc clone ->
            match Hashtbl.find_opt t.node_ids (Nreg (clone, r)) with
            | Some n -> IntSet.union acc t.pts.(n)
            | None -> acc)
          IntSet.empty (clones_of t fn)
      in
      objs_of_ids t ids
  | _ ->
      List.sort_uniq compare
        (List.map (fun o -> base_obj t.objs.(o)) (value_objs t ~fn v))

let returns t ~fn =
  let ids =
    List.fold_left
      (fun acc clone ->
        match Hashtbl.find_opt t.node_ids (Nret clone) with
        | Some n -> IntSet.union acc t.pts.(n)
        | None -> acc)
      IntSet.empty (clones_of t fn)
  in
  objs_of_ids t ids

let instances_of t sname =
  match Hashtbl.find_opt t.instances sname with
  | Some s -> objs_of_ids t !s
  | None -> []

let objects t =
  List.sort_uniq compare
    (List.map base_obj (Array.to_list (Array.sub t.objs 0 t.n_objs)))

let cell_contents t o =
  let ids =
    List.fold_left
      (fun acc v ->
        match Hashtbl.find_opt t.node_ids (Ncell v) with
        | Some c -> IntSet.union acc t.pts.(c)
        | None -> acc)
      IntSet.empty (with_variants t o)
  in
  objs_of_ids t ids

let escaped_objects t = objs_of_ids t !(t.escaped)

type stats = {
  nodes : int;
  objects : int;
  iterations : int;
  heap_objects : int;
  escaped_objects : int;
  clones : int;
}

let stats t =
  let heap = ref 0 in
  for o = 0 to t.n_objs - 1 do
    match t.objs.(o) with Oheap _ -> incr heap | _ -> ()
  done;
  {
    nodes = t.n_nodes;
    objects = t.n_objs;
    iterations = t.iterations;
    heap_objects = !heap;
    escaped_objects = IntSet.cardinal !(t.escaped);
    clones = t.n_clones;
  }

(* ------------------------- the attacker model ---------------------- *)

(* The linear-overflow window: a contiguous write running forward from
   a writable buffer rewrites whatever is laid out behind it. Writable
   arrays open one, and so do structs containing one. *)
let rec opens_window (m : Ir.modul) ty =
  match ty with
  | Ctype.Array (elem, _) -> not (Ctype.is_const elem)
  | Ctype.Struct s ->
      List.exists (fun (_, fty) -> opens_window m fty) (Ir.struct_lookup m s)
  | Ctype.Const _ -> false
  | Ctype.Void | Ctype.Char | Ctype.Int | Ctype.Long | Ctype.Double
  | Ctype.Ptr _ | Ctype.Func _ ->
      false

(* In the globals segment (declaration order is layout order) the first
   opener exposes every global after it. *)
let windowed_globals (m : Ir.modul) =
  let var (g : Ir.global_def) = g.Ir.gvar in
  let rec behind = function
    | [] -> []
    | g :: rest ->
        if opens_window m (var g).Rsti_minic.Tast.v_ty then
          List.map (fun g -> (var g).Rsti_minic.Tast.v_id) rest
        else behind rest
  in
  behind m.Ir.m_globals

type confinement = { pt : t; attacker : IntSet.t }

let confinement (pt : t) =
  (* seeds: heap objects, extern data, escaped objects, int-laundered
     pointers, and globals behind a linear-overflow window *)
  let windowed = IntSet.of_list (windowed_globals pt.modul) in
  let seeds = ref IntSet.empty in
  for o = 0 to pt.n_objs - 1 do
    match base_obj pt.objs.(o) with
    | Oheap _ | Oextern _ | Ounknown -> seeds := IntSet.add o !seeds
    | Ovar id when IntSet.mem id windowed -> seeds := IntSet.add o !seeds
    | _ -> ()
  done;
  seeds := IntSet.union !seeds !(pt.escaped);
  (* a struct field cell lives inside its instances: if any instance is
     attacker memory, the field cell is attacker-writable. Only cells the
     solve interned can pass pointers on, and the query interns nothing,
     so reading a (cached, shared) solution never changes it. *)
  let field_attacker attacker =
    Hashtbl.fold
      (fun sname is acc ->
        if IntSet.exists (fun o -> IntSet.mem o attacker) !is then
          List.fold_left
            (fun acc (fname, _) ->
              match Hashtbl.find_opt pt.obj_ids (Ofield (sname, fname)) with
              | Some o -> IntSet.add o acc
              | None -> acc)
            acc
            (match List.assoc_opt sname pt.modul.Ir.m_structs with
            | Some fs -> fs
            | None -> [])
        else acc)
      pt.instances IntSet.empty
  in
  (* close under contents: a pointer stored in attacker memory makes its
     target attacker-reachable (and hence writable) *)
  let rec close attacker =
    let next = ref (IntSet.union attacker (field_attacker attacker)) in
    IntSet.iter
      (fun o ->
        match Hashtbl.find_opt pt.node_ids (Ncell pt.objs.(o)) with
        | Some c -> next := IntSet.union !next pt.pts.(c)
        | None -> ())
      !next;
    if IntSet.equal !next attacker then attacker else close !next
  in
  { pt; attacker = close !seeds }

(* Field cells are attacker memory whenever an instance of their struct
   is, interned or not. *)
let attacker_instance c sname =
  match Hashtbl.find_opt c.pt.instances sname with
  | Some is -> IntSet.exists (fun o -> IntSet.mem o c.attacker) !is
  | None -> false

let attacker_obj c o =
  (* [o] is a base object; any reachable per-context clone taints it *)
  (match o with Ofield (s, _) -> attacker_instance c s | _ -> false)
  || List.exists
    (fun v ->
      match Hashtbl.find_opt c.pt.obj_ids v with
      | Some i -> IntSet.mem i c.attacker
      | None -> false)
    (with_variants c.pt o)

(* Is this slot's storage provably out of the attacker's reach?

   - [Svar id]: the variable's own object is not attacker memory.
   - [Sfield (s, f)]: no instance of [s] is attacker memory and the
     summarized field cell was not reached by the closure.
   - [Sanon ty]: every object any same-typed deref access can touch
     (the union over the class' address nodes) is private — variables
     and anonymous stack cells only, none attacker. An empty access set
     is trivially confined (the class has no executable access paths).

   Modifier consistency across the aliased paths is by construction:
   the instrumentation keys every address-taken variable and every
   deref through its [Sanon] type class ([Analysis.alias_slot]), so all
   paths that can reach a confined slot sign/auth under one modifier. *)
let confined_slot c (slot : Ir.slot) =
  let pt = c.pt in
  let att o = IntSet.mem o c.attacker in
  match slot with
  | Ir.Svar id ->
      List.for_all
        (fun v ->
          match Hashtbl.find_opt pt.obj_ids v with
          | Some o -> not (att o)
          | None -> true)
        (with_variants pt (Ovar id))
  | Ir.Sfield (s, f) ->
      (not (attacker_instance c s))
      && (match Hashtbl.find_opt pt.obj_ids (Ofield (s, f)) with
         | Some o -> not (att o)
         | None -> true)
  | Ir.Sanon ty -> (
      match Hashtbl.find_opt pt.sanon_addrs (sanon_key ty) with
      | None -> true
      | Some addrs ->
          IntSet.for_all
            (fun a ->
              IntSet.for_all
                (fun o ->
                  (not (att o))
                  &&
                  match base_obj pt.objs.(o) with
                  | Ovar _ | Otmp _ -> true
                  | Ofield _ | Oheap _ | Oextern _ | Ostr | Ofun _ | Ounknown
                  | Octx _ ->
                      false)
                pt.pts.(a))
            !addrs)
