(* Static scope-escape analysis: does the address of a stack slot
   outlive its defining scope?

   The paper enforces scope at runtime (the location-sensitive STL
   mechanism); this pass is the static counterpart. Registers are
   assigned once, so no two values of a register ever join: each
   register's frame local is read off its one definition. An alloca of
   one of the function's own locals holds that local; a gep, element
   address or bitcast of a register holding a local holds the same one
   (an interior pointer pins the whole frame slot); anything else holds
   none. Every block is walked, reachable from the entry or not. Sinks
   are the three ways an address can outlive the frame:

   - stored into longer-lived memory (a global, a struct field whose
     instances are not all in this frame, or a deref destination the
     points-to solution places outside the frame),
   - returned to the caller,
   - passed to external code (which may stash it anywhere).

   The walk yields precisely-located events; the points-to solution
   then completes it interprocedurally — a local whose address sits in
   some longer-lived object's content cell, escapes to extern code, or
   flows out of the defining function's return channel may escape even
   when every sink instruction is in a callee.

   On top of the escape facts sits the stale-frame rule: a load/store in
   function [g] through a pointer that may target a local of [f], where
   [f] cannot be an active caller of [g] ([g] is unreachable from [f] in
   the call graph), dereferences a frame that has provably ended. *)

module Ir = Rsti_ir.Ir
module Dinfo = Rsti_ir.Dinfo
module IntSet = Set.Make (Int)

type sink =
  | Stored of string        (* description of the longer-lived destination *)
  | Returned
  | Passed_extern of string (* the external callee *)

let sink_to_string = function
  | Stored dst -> "stored into " ^ dst
  | Returned -> "returned to caller"
  | Passed_extern f -> "passed to external function " ^ f

type escape = {
  local : int;         (* var id *)
  local_name : string;
  func : string;       (* defining function *)
  line : int;          (* sink line, or the declaration line *)
  sink : sink;
}

type stale = {
  use_func : string;
  use_line : int;
  local_name : string;
  decl_func : string;
  must : bool; (* every object the pointer may target is a dead frame *)
}

type t = {
  escapes : escape list;
  stales : stale list;
  escaping : IntSet.t;
  n_locals : int;
}

(* --------------------------- the analysis -------------------------- *)

let c_analyses = Rsti_observe.Observe.Metrics.counter "dataflow.scope_escape.analyses"

(* What a register holding no local's address reads as (var ids are
   non-negative). *)
let no_local = -1

let analyze ~points_to:(pt : Points_to.t) (m : Ir.modul) =
  let module Observe = Rsti_observe.Observe in
  let sp = Observe.Span.enter "dataflow.scope_escape" in
  let globals = Hashtbl.create 32 in
  List.iter
    (fun (g : Ir.global_def) ->
      Hashtbl.replace globals g.Ir.gvar.Rsti_minic.Tast.v_id
        g.Ir.gvar.Rsti_minic.Tast.v_name)
    m.Ir.m_globals;
  (* locals: every alloca'd variable, owned by its declaring function;
     filled function by function as the walk below reaches each one *)
  let owner : (int, string * string * int) Hashtbl.t = Hashtbl.create 64 in
  let defined = Hashtbl.create 32 in
  List.iter (fun (f : Ir.func) -> Hashtbl.replace defined f.Ir.name ()) m.Ir.m_funcs;
  let frame_obj ~fn = function
    | Points_to.Ovar id -> (
        match Hashtbl.find_opt owner id with
        | Some (f, _, _) -> f = fn
        | None -> false)
    | Points_to.Otmp (f, _) -> f = fn
    | _ -> false
  in
  let escapes = ref [] in
  let line_of (ins : Ir.instr) =
    match ins.Ir.dbg with Some d -> d.Dinfo.dl_line | None -> 0
  in
  (* per function: precisely-located sink events *)
  List.iter
    (fun (fn : Ir.func) ->
      let fname = fn.Ir.name in
      (* one pass: each register's one definition, and this function's
         locals *)
      let defs = Hashtbl.create 64 in
      Ir.iter_instrs
        (fun ins ->
          (match ins.Ir.i with
          | Ir.Alloca { dv = Some d; _ } ->
              Hashtbl.replace owner d.Dinfo.dv_id
                (fname, d.Dinfo.dv_name, d.Dinfo.dv_line)
          | _ -> ());
          match Ir.def_reg ins.Ir.i with
          | Some r -> Hashtbl.replace defs r ins
          | None -> ())
        fn;
      (* register -> the local it holds, memoised *)
      let memo = Hashtbl.create 64 in
      let rec local_of r =
        match Hashtbl.find_opt memo r with
        | Some l -> l
        | None ->
            (* a definition that leads back to [r] reads as no local *)
            Hashtbl.replace memo r no_local;
            let l =
              match Hashtbl.find_opt defs r with
              | Some { Ir.i = Ir.Alloca { dv = Some d; _ }; _ } -> d.Dinfo.dv_id
              | Some
                  { Ir.i =
                      ( Ir.Gep { base = Ir.Reg b; _ }
                      | Ir.Gepidx { base = Ir.Reg b; _ }
                      | Ir.Bitcast { src = Ir.Reg b; _ } ); _ } ->
                  local_of b
              | _ -> no_local
            in
            Hashtbl.replace memo r l;
            l
      in
      let held = function Ir.Reg r -> local_of r | _ -> no_local in
      let emit ~line ~sink l =
        let _, name, _ = Hashtbl.find owner l in
        escapes :=
          { local = l; local_name = name; func = fname; line; sink }
          :: !escapes
      in
      Array.iter
        (fun (b : Ir.block) ->
          List.iter
            (fun ins ->
              match ins.Ir.i with
              | Ir.Store { src; addr; slot; _ } ->
                  let l = held src in
                  if l <> no_local then begin
                    let dst =
                      match slot with
                      | Ir.Svar id -> (
                          match Hashtbl.find_opt globals id with
                          | Some name -> Some ("global " ^ name)
                          | None -> None (* a slot in this same frame *))
                      | Ir.Sfield (s, _) -> (
                          match Points_to.instances_of pt s with
                          | [] -> None
                          | is when List.for_all (frame_obj ~fn:fname) is ->
                              None
                          | _ -> Some ("a struct " ^ s ^ " outside the frame"))
                      | Ir.Sanon _ -> (
                          match Points_to.points_to pt ~fn:fname addr with
                          | [] -> None
                          | objs
                            when List.for_all (frame_obj ~fn:fname) objs ->
                              None
                          | objs ->
                              let o =
                                List.find
                                  (fun o -> not (frame_obj ~fn:fname o))
                                  objs
                              in
                              Some (Points_to.obj_to_string o))
                    in
                    match dst with
                    | Some d -> emit ~line:(line_of ins) ~sink:(Stored d) l
                    | None -> ()
                  end
              | Ir.Call { callee = Ir.Direct f; args; _ }
                when not (Hashtbl.mem defined f) ->
                  List.iter
                    (fun a ->
                      let l = held a in
                      if l <> no_local then
                        emit ~line:(line_of ins) ~sink:(Passed_extern f) l)
                    args
              | _ -> ())
            b.Ir.instrs;
          match b.Ir.term with
          | Ir.Ret (Some (Ir.Reg r)) when local_of r <> no_local ->
              (* a [Ret] has no line: the line of [r]'s definition (the
                 return expression), else the local's declaration's *)
              let l = local_of r and line = line_of (Hashtbl.find defs r) in
              let _, _, decl = Hashtbl.find owner l in
              emit ~line:(if line > 0 then line else decl) ~sink:Returned l
          | _ -> ())
        fn.Ir.blocks)
    m.Ir.m_funcs;
  (* interprocedural completion from the points-to solution: addresses
     that escape through callees have no sink instruction in the
     defining function, but still show up escaped / stored in a
     longer-lived cell / in the return channel *)
  let seen = Hashtbl.create 64 in
  List.iter (fun e -> Hashtbl.replace seen e.local ()) !escapes;
  let longer_lived o =
    match Points_to.base_obj o with
    | Points_to.Ovar id -> Hashtbl.mem globals id
    | Points_to.Ofield _ | Points_to.Oheap _ | Points_to.Oextern _
    | Points_to.Ounknown ->
        true
    | Points_to.Otmp _ | Points_to.Ostr | Points_to.Ofun _
    | Points_to.Octx _ ->
        false
  in
  (* one pass over the objects, in [Points_to.objects] order: each
     local -> the first longer-lived cell holding its address *)
  let stored_in = Hashtbl.create 64 in
  List.iter
    (fun o ->
      if longer_lived o then
        List.iter
          (function
            | Points_to.Ovar l when not (Hashtbl.mem stored_in l) ->
                Hashtbl.replace stored_in l o
            | _ -> ())
          (Points_to.cell_contents pt o))
    (Points_to.objects pt);
  let escaped = Hashtbl.create 16 in
  List.iter
    (function Points_to.Ovar l -> Hashtbl.replace escaped l () | _ -> ())
    (Points_to.escaped_objects pt);
  (* precedence: passed to extern, then stored, then returned *)
  let complete (l, (f, name, line)) =
    let sink =
      if Hashtbl.mem seen l then None
      else if Hashtbl.mem escaped l then Some (Passed_extern "<extern>")
      else
        match Hashtbl.find_opt stored_in l with
        | Some o -> Some (Stored (Points_to.obj_to_string o))
        | None when List.mem (Points_to.Ovar l) (Points_to.returns pt ~fn:f) ->
            Some Returned
        | None -> None
    in
    Option.iter
      (fun sink ->
        escapes :=
          { local = l; local_name = name; func = f; line; sink } :: !escapes)
      sink
  in
  List.iter complete
    (List.sort compare
       (Hashtbl.fold (fun l inf acc -> (l, inf) :: acc) owner []));
  (* stale-frame derefs: a use in [g] of a pointer targeting a local of
     [f], where [f] cannot be an active caller of [g] *)
  let cg = Callgraph.of_modul m in
  let reaches = Callgraph.reaches cg in
  let stales = ref [] in
  let stale_seen = Hashtbl.create 16 in
  List.iter
    (fun (fn : Ir.func) ->
      let g = fn.Ir.name in
      Ir.iter_instrs
        (fun ins ->
          let addr =
            match ins.Ir.i with
            | Ir.Load { addr = Ir.Reg r; _ } | Ir.Store { addr = Ir.Reg r; _ }
              ->
                Some r
            | _ -> None
          in
          match addr with
          | None -> ()
          | Some r ->
              let objs = Points_to.points_to pt ~fn:g (Ir.Reg r) in
              let dead_frame = function
                | Points_to.Ovar l -> (
                    match Hashtbl.find_opt owner l with
                    | Some (f, _, _) -> f <> g && not (reaches f g)
                    | None -> false)
                | Points_to.Otmp (f, _) -> f <> g && not (reaches f g)
                | _ -> false
              in
              let dead =
                List.filter_map
                  (function
                    | Points_to.Ovar l when dead_frame (Points_to.Ovar l) ->
                        Some l
                    | _ -> None)
                  objs
              in
              if dead <> [] then begin
                let must = List.for_all dead_frame objs in
                List.iter
                  (fun l ->
                    match Hashtbl.find_opt owner l with
                    | Some (f, name, _) ->
                        let line = line_of ins in
                        if not (Hashtbl.mem stale_seen (g, line, l)) then begin
                          Hashtbl.replace stale_seen (g, line, l) ();
                          stales :=
                            {
                              use_func = g;
                              use_line = line;
                              local_name = name;
                              decl_func = f;
                              must;
                            }
                            :: !stales
                        end
                    | None -> ())
                  dead
              end)
        fn)
    m.Ir.m_funcs;
  let escapes =
    List.sort_uniq compare (List.rev !escapes)
  in
  let escaping =
    List.fold_left (fun acc e -> IntSet.add e.local acc) IntSet.empty escapes
  in
  let t =
    {
      escapes;
      stales = List.sort_uniq compare (List.rev !stales);
      escaping;
      n_locals = Hashtbl.length owner;
    }
  in
  Observe.Metrics.incr c_analyses;
  if sp != Observe.Span.none then begin
    Observe.Span.add_attr sp "locals" (string_of_int t.n_locals);
    Observe.Span.add_attr sp "escaping" (string_of_int (IntSet.cardinal escaping));
    Observe.Span.add_attr sp "stale_derefs" (string_of_int (List.length t.stales))
  end;
  Observe.Span.exit sp;
  t

(* ----------------------------- queries ----------------------------- *)

let escapes t = t.escapes
let stale_derefs t = t.stales
let may_escape t l = IntSet.mem l t.escaping
let stats t = (IntSet.cardinal t.escaping, t.n_locals)
