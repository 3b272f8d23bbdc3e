(* k-limited call-site contexts for the cloning points-to mode.

   A context is a bounded call string: the most recent [k] call-site ids
   on the path from a root into the function, newest first.  Call sites
   get stable ids from a deterministic module walk ({!call_sites}), so
   the same site numbers the same way in every analysis mode — the
   insensitive solver reuses the ids for its heap-allocation objects.

   The universe of contexts is enumerated up front from the module's
   call edges (direct edges plus the sound indirect default: every
   address-taken defined function), starting every defined function at
   the empty string [eps] — functions can always be entered by unknown
   external callers, and the empty-context clone keeps the base
   function's bare name so [k = 0] reproduces the insensitive node
   graph exactly.  Two collapses bound the enumeration:

   - edges inside one {!Callgraph} SCC do not extend the string
     (recursion would otherwise build unbounded strings), and
   - a function keeps at most [max_clones] distinct contexts; further
     strings fold into the empty context (sound: the clone merges the
     overflowing callers, exactly like the insensitive analysis merges
     all of them). *)

module Ir = Rsti_ir.Ir

let max_clones = 16

type t = {
  k : int;
  (* interned call strings: id -> site ids, newest first; id 0 = eps *)
  mutable strings : int list array;
  mutable n_ctx : int;
  ids : (int list, int) Hashtbl.t;
  scc_of : (string, int) Hashtbl.t;
  ctxs : (string, int list ref) Hashtbl.t; (* fn -> ctx ids, ascending *)
  sites : (string * int, int) Hashtbl.t;   (* (fn, nth call) -> site id *)
  site_callers : string array;             (* site id -> calling function *)
}

let empty_ctx = 0

(* Stable call-site numbering: functions in module order, call
   instructions in block/instruction order.  Every analysis mode that
   needs a per-call-site identity uses this one table. *)
let call_sites (m : Ir.modul) =
  let tbl = Hashtbl.create 256 in
  let callers = ref [] in
  let next = ref 0 in
  List.iter
    (fun (fn : Ir.func) ->
      let nth = ref 0 in
      Ir.iter_instrs
        (fun ins ->
          match ins.Ir.i with
          | Ir.Call _ ->
              Hashtbl.replace tbl (fn.Ir.name, !nth) !next;
              callers := fn.Ir.name :: !callers;
              incr nth;
              incr next
          | _ -> ())
        fn)
    m.Ir.m_funcs;
  (tbl, Array.of_list (List.rev !callers))

let intern t s =
  match Hashtbl.find_opt t.ids s with
  | Some i -> i
  | None ->
      let i = t.n_ctx in
      Hashtbl.replace t.ids s i;
      if i >= Array.length t.strings then
        t.strings <-
          Array.append t.strings (Array.make (max 16 (Array.length t.strings)) []);
      t.strings.(i) <- s;
      t.n_ctx <- i + 1;
      i

let ctx_list t fn =
  match Hashtbl.find_opt t.ctxs fn with
  | Some l -> l
  | None ->
      let l = ref [] in
      Hashtbl.replace t.ctxs fn l;
      l

let rec take n = function
  | [] -> []
  | _ when n <= 0 -> []
  | x :: tl -> x :: take (n - 1) tl

(* The callee-side context for a call edge: SCC-internal edges keep the
   caller's string, others push the site and truncate to k.  Strings a
   clone budget refused fold into eps. *)
let extend t ~caller ~ctx ~site ~callee =
  let same_scc =
    match (Hashtbl.find_opt t.scc_of caller, Hashtbl.find_opt t.scc_of callee) with
    | Some a, Some b -> a = b
    | _ -> false
  in
  let s = if same_scc then t.strings.(ctx) else take t.k (site :: t.strings.(ctx)) in
  match Hashtbl.find_opt t.ids s with
  | Some i -> if List.mem i !(ctx_list t callee) then i else empty_ctx
  | None -> empty_ctx

let build ~k (m : Ir.modul) (cg : Callgraph.t) =
  let sites, site_callers = call_sites m in
  let t =
    {
      k = max 0 k;
      strings = Array.make 64 [];
      n_ctx = 0;
      ids = Hashtbl.create 64;
      scc_of = Hashtbl.create 64;
      ctxs = Hashtbl.create 64;
      sites;
      site_callers;
    }
  in
  ignore (intern t []);
  List.iteri
    (fun i comp -> List.iter (fun f -> Hashtbl.replace t.scc_of f i) comp)
    (Callgraph.sccs cg);
  let defined = Hashtbl.create 64 in
  List.iter (fun (f : Ir.func) -> Hashtbl.replace defined f.Ir.name f) m.Ir.m_funcs;
  (* call edges: (caller, site, callee) — indirect sites target every
     address-taken defined function, in name order (the order fixes
     context ids) *)
  let addr_taken = List.sort compare (Callgraph.address_taken cg) in
  let edges = Hashtbl.create 64 in (* caller -> (site, callee) list, in order *)
  List.iter
    (fun (fn : Ir.func) ->
      let nth = ref 0 in
      let acc = ref [] in
      Ir.iter_instrs
        (fun ins ->
          match ins.Ir.i with
          | Ir.Call { callee; _ } ->
              let site = Hashtbl.find t.sites (fn.Ir.name, !nth) in
              incr nth;
              (match callee with
              | Ir.Direct f | Ir.Indirect (Ir.Funcaddr f) ->
                  if Hashtbl.mem defined f then acc := (site, f) :: !acc
              | Ir.Indirect _ ->
                  List.iter (fun f -> acc := (site, f) :: !acc) addr_taken)
          | _ -> ())
        fn;
      Hashtbl.replace edges fn.Ir.name (List.rev !acc))
    m.Ir.m_funcs;
  (* enumerate (function, context) pairs to fixpoint from all-eps *)
  let queue = Queue.create () in
  let add fn ctx =
    let l = ctx_list t fn in
    if not (List.mem ctx !l) then begin
      l := ctx :: !l;
      Queue.add (fn, ctx) queue
    end
  in
  List.iter (fun (f : Ir.func) -> add f.Ir.name empty_ctx) m.Ir.m_funcs;
  while not (Queue.is_empty queue) do
    let fn, ctx = Queue.pop queue in
    List.iter
      (fun (site, callee) ->
        let same_scc =
          match
            (Hashtbl.find_opt t.scc_of fn, Hashtbl.find_opt t.scc_of callee)
          with
          | Some a, Some b -> a = b
          | _ -> false
        in
        let s =
          if same_scc then t.strings.(ctx) else take t.k (site :: t.strings.(ctx))
        in
        if s = [] then add callee empty_ctx
        else begin
          let l = ctx_list t callee in
          let id = Hashtbl.find_opt t.ids s in
          match id with
          | Some i when List.mem i !l -> ()
          | _ ->
              if List.length !l < max_clones then add callee (intern t s)
              (* over budget: the string folds into eps, already present *)
        end)
      (match Hashtbl.find_opt edges fn with Some e -> e | None -> [])
  done;
  Hashtbl.iter (fun _ l -> l := List.sort_uniq compare !l) t.ctxs;
  t

let k t = t.k
let n_contexts t = t.n_ctx

let contexts_of t fn =
  match Hashtbl.find_opt t.ctxs fn with Some l -> !l | None -> [ empty_ctx ]

let n_clones t =
  Hashtbl.fold (fun _ l acc -> acc + List.length !l) t.ctxs 0

let site t ~caller nth =
  match Hashtbl.find_opt t.sites (caller, nth) with Some s -> s | None -> -1

(* The node-naming scheme: the empty-context clone keeps the bare
   function name (so k = 0 is literally the insensitive graph), other
   clones append the interned context id. *)
let clone_name _t fn ctx =
  if ctx = empty_ctx then fn else Printf.sprintf "%s@%d" fn ctx

let to_string t ctx =
  if ctx = empty_ctx then "<>"
  else
    "<"
    ^ String.concat ","
        (List.map
           (fun s ->
             if s >= 0 && s < Array.length t.site_callers then
               Printf.sprintf "%s#%d" t.site_callers.(s) s
             else string_of_int s)
           t.strings.(ctx))
    ^ ">"
