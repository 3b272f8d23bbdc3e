(* The module call graph and its bottom-up (callees-first) order.

   Direct calls give precise edges; an indirect call site adds edges to
   every function whose address is taken anywhere in the module (the
   sound flow-insensitive default — the points-to client then narrows
   indirect targets with its own sets). Strongly connected components
   come from Tarjan's algorithm; [bottom_up] lists SCCs callees-first,
   the order an interprocedural summary pass wants.

   This is the module's one call graph: the points-to solver's order,
   the context universe's indirect edges, scope liveness and the
   replay-edge liveness of [Equiv] all read it. Each function's reach
   (reflexive-transitive closure) is computed on first query and kept
   in the [t] that asked for it. *)

module Ir = Rsti_ir.Ir

type t = {
  names : string array;
  index : (string, int) Hashtbl.t;
  addr_taken : int list; (* ascending: module order *)
  callees : int list array;
  sccs : string list list; (* callees-first *)
  reach : bool array option array; (* memo: i -> the functions it reaches *)
}

let call_targets addr_taken (fns : (string, int) Hashtbl.t) (i : Ir.instr_desc) =
  match i with
  | Ir.Call { callee = Ir.Direct f; _ } -> (
      match Hashtbl.find_opt fns f with Some j -> [ j ] | None -> [])
  | Ir.Call { callee = Ir.Indirect _; _ } -> addr_taken
  | _ -> []

let of_modul (m : Ir.modul) =
  let names = Array.of_list (List.map (fun (f : Ir.func) -> f.Ir.name) m.Ir.m_funcs) in
  let index = Hashtbl.create 64 in
  Array.iteri (fun i n -> Hashtbl.replace index n i) names;
  (* functions whose address is taken anywhere (Funcaddr operands) *)
  let addr_taken = ref [] in
  let note_value = function
    | Ir.Funcaddr f -> (
        match Hashtbl.find_opt index f with
        | Some j when not (List.mem j !addr_taken) -> addr_taken := j :: !addr_taken
        | _ -> ())
    | _ -> ()
  in
  List.iter
    (fun (fn : Ir.func) ->
      Ir.iter_instrs
        (fun ins ->
          match ins.Ir.i with
          | Ir.Load { addr; _ } -> note_value addr
          | Ir.Store { src; addr; _ } -> note_value src; note_value addr
          | Ir.Gep { base; _ } | Ir.Gepidx { base; _ } -> note_value base
          | Ir.Bitcast { src; _ } | Ir.Cast_num { src; _ }
          | Ir.Neg { src; _ } | Ir.Lognot { src; _ } | Ir.Bitnot { src; _ } ->
              note_value src
          | Ir.Binop { a; b; _ } -> note_value a; note_value b
          | Ir.Call { callee; args; _ } ->
              (match callee with Ir.Indirect v -> note_value v | Ir.Direct _ -> ());
              List.iter note_value args
          | Ir.Alloca _ | Ir.Pac _ | Ir.Pp _ -> ())
        fn)
    m.Ir.m_funcs;
  let addr_taken = List.sort compare !addr_taken in
  let callees =
    Array.of_list
      (List.map
         (fun (fn : Ir.func) ->
           let acc = ref [] in
           Ir.iter_instrs
             (fun ins ->
               List.iter
                 (fun j -> if not (List.mem j !acc) then acc := j :: !acc)
                 (call_targets addr_taken index ins.Ir.i))
             fn;
           List.rev !acc)
         m.Ir.m_funcs)
  in
  (* Tarjan's SCC: emitted components are callees-first already (a
     component is finished only after everything it reaches). *)
  let n = Array.length names in
  let idx = Array.make n (-1) and low = Array.make n 0 in
  let on_stack = Array.make n false in
  let stack = ref [] and counter = ref 0 and comps = ref [] in
  let rec strong v =
    idx.(v) <- !counter;
    low.(v) <- !counter;
    incr counter;
    stack := v :: !stack;
    on_stack.(v) <- true;
    List.iter
      (fun w ->
        if idx.(w) < 0 then begin
          strong w;
          low.(v) <- min low.(v) low.(w)
        end
        else if on_stack.(w) then low.(v) <- min low.(v) idx.(w))
      callees.(v);
    if low.(v) = idx.(v) then begin
      let rec popc acc =
        match !stack with
        | w :: rest ->
            stack := rest;
            on_stack.(w) <- false;
            if w = v then w :: acc else popc (w :: acc)
        | [] -> acc
      in
      let comp = popc [] in
      comps := List.map (fun j -> names.(j)) comp :: !comps
    end
  in
  for v = 0 to n - 1 do
    if idx.(v) < 0 then strong v
  done;
  { names; index; addr_taken; callees; sccs = List.rev !comps;
    reach = Array.make n None }

let sccs t = t.sccs
let bottom_up t = List.concat t.sccs

let callees t name =
  match Hashtbl.find_opt t.index name with
  | None -> []
  | Some i -> List.map (fun j -> t.names.(j)) t.callees.(i)

let address_taken t = List.map (fun j -> t.names.(j)) t.addr_taken

let reach_of t i =
  match t.reach.(i) with
  | Some r -> r
  | None ->
      let seen = Array.make (Array.length t.names) false in
      let rec go j =
        if not seen.(j) then begin
          seen.(j) <- true;
          List.iter go t.callees.(j)
        end
      in
      go i;
      t.reach.(i) <- Some seen;
      seen

let reach t f =
  match Hashtbl.find_opt t.index f with
  | None -> [ f ]
  | Some i ->
      let seen = reach_of t i in
      let acc = ref [] in
      Array.iteri (fun j s -> if s then acc := t.names.(j) :: !acc) seen;
      List.sort compare !acc

let reaches t f g =
  match (Hashtbl.find_opt t.index f, Hashtbl.find_opt t.index g) with
  | Some i, Some j -> (reach_of t i).(j)
  | _ -> f = g
