(* Proof-based instrumentation elision (the static half of the paper's
   overhead story: §6.3.2 shows overhead tracks instrumented load/store
   count, so every sign/auth pair proven consistent is overhead removed
   at zero security cost).

   A slot's sign/auth pair can be elided when three facts hold
   statically:

   1. Modifier consistency: every store that can reach a load of the slot
      signs under the slot's own RSTI-type modifier. In this IR that is
      structural for non-aliased slots (both sites derive the modifier
      from the same slot key, and the interprocedural flow component is
      where cross-slot flows show up) — so the proof obligation reduces
      to the absence of aliased access paths.
   2. No escaping access path: the slot's address never escapes (no
      pointer to it is formed), and its flow component contains no
      heap-resident or anonymous member a same-typed foreign pointer
      could write through, and no cast launders values out of the
      component under a different RSTI-type.
   3. No attacker-writable window: under the linear-overflow attacker
      model (a contiguous write running forward from a writable buffer —
      the classic heap/stack/global overflow), no writable array in the
      same segment ("page class") precedes the slot. Heap slots always
      fail this (attacker allocations neighbour them); globals fail it
      exactly when a writable global array is laid out before them.

   Two categorical exclusions on top:

   - Code pointers are never elided: removing a control-flow check
     trades a CFI guarantee for cycles, which is not this pass's call to
     make. Likewise const slots — their auth IS the permission check.
   - Slots whose flow component stores an extern-derived (heap) pointer
     are never elided: every signed heap pointer has same-typed siblings
     living in attacker-window memory (the heap), so a substitution
     donor always exists regardless of where the slot itself lives. *)

module Ir = Rsti_ir.Ir
module Ctype = Rsti_minic.Ctype
module Analysis = Rsti_sti.Analysis
module Points_to = Rsti_dataflow.Points_to
module Scope_escape = Rsti_dataflow.Scope_escape

type mode = Off | Syntactic | With_points_to | With_context of int

let mode_to_string = function
  | Off -> "off"
  | Syntactic -> "syntactic"
  | With_points_to -> "points-to"
  | With_context k -> Printf.sprintf "context:%d" k

let default_context_k = 2

let mode_of_string = function
  | "off" -> Some Off
  | "syntactic" | "on" -> Some Syntactic
  | "points-to" | "points_to" | "pt" -> Some With_points_to
  | "context" | "cs" -> Some (With_context default_context_k)
  | s when String.length s > 8 && String.sub s 0 8 = "context:" -> (
      match int_of_string_opt (String.sub s 8 (String.length s - 8)) with
      | Some k when k >= 0 -> Some (With_context k)
      | _ -> None)
  | _ -> None

type reason =
  | Heap_reachable     (* field/anonymous slot: attacker heap neighbours *)
  | Address_escapes    (* &slot is formed: aliased stores possible *)
  | Code_pointer       (* never trade a CFI check away *)
  | Const_slot         (* the auth IS the permission check: keep it *)
  | Heap_value         (* holds extern-derived (heap) pointers: donors exist *)
  | Overflow_window    (* a writable global array precedes it in layout *)
  | Cast_in_component  (* values laundered through casts in the component *)
  | Component_escapes  (* flow component has escaping/heap members *)
  | Scope_escapes      (* a local in the component provably outlives its
                          frame (scope checker's refinement of a failed
                          confinement discharge) *)

type verdict = Provably_safe | Must_check of reason

let reason_to_string = function
  | Heap_reachable -> "heap-reachable"
  | Address_escapes -> "address-escapes"
  | Code_pointer -> "code-pointer"
  | Const_slot -> "const-slot"
  | Heap_value -> "heap-value"
  | Overflow_window -> "overflow-window"
  | Cast_in_component -> "cast-in-component"
  | Component_escapes -> "component-escapes"
  | Scope_escapes -> "scope-escapes"

let verdict_to_string = function
  | Provably_safe -> "provably-safe"
  | Must_check r -> "must-check:" ^ reason_to_string r

type t = {
  anal : Analysis.t;
  windowed : (int, unit) Hashtbl.t;   (* global var ids behind a window *)
  tainted : (string, unit) Hashtbl.t; (* component roots storing heap ptrs *)
  comp_cache : (string, reason option) Hashtbl.t;
  conf : Points_to.confinement option; (* attacker model, when points-to ran *)
  scope : Scope_escape.t option; (* scope checker, in context mode *)
}

(* Extern ingress: a pointer store whose value is the raw return of a
   call to an undefined (extern) function, followed back through its
   defining [Bitcast]s. *)
let extern_ingress (m : Ir.modul) =
  let defined = Hashtbl.create 16 in
  List.iter (fun (f : Ir.func) -> Hashtbl.replace defined f.Ir.name ()) m.m_funcs;
  List.concat_map
    (fun (fn : Ir.func) ->
      let defs = Hashtbl.create 64 in
      Ir.iter_instrs
        (fun ins ->
          match ins.i with
          | Ir.Bitcast { dst; _ } | Ir.Call { dst = Some dst; _ } ->
              Hashtbl.replace defs dst ins.i
          | _ -> ())
        fn;
      let rec extern_origin v =
        match v with
        | Ir.Reg r -> (
            match Hashtbl.find_opt defs r with
            | Some (Ir.Bitcast { src; _ }) -> extern_origin src
            | Some (Ir.Call { callee = Ir.Direct f; _ })
              when not (Hashtbl.mem defined f) ->
                Some f
            | _ -> None)
        | _ -> None
      in
      Ir.fold_instrs
        (fun acc ins ->
          match ins.i with
          | Ir.Store { slot; src; ty; _ } when Ctype.is_pointer ty -> (
              match extern_origin src with
              | Some callee -> (fn.Ir.name, ins, slot, callee) :: acc
              | None -> acc)
          | _ -> acc)
        [] fn
      |> List.rev)
    m.m_funcs

let analyze ?points_to ?scope anal (m : Ir.modul) : t =
  let windowed = Hashtbl.create 16 in
  List.iter
    (fun id -> Hashtbl.replace windowed id ())
    (Points_to.windowed_globals m);
  (* Heap-value taint: a slot storing an extern return (malloc and
     friends, looking through casts) holds a heap pointer. Every signed
     heap pointer has same-typed siblings reachable from attacker-window
     memory, so a substitution donor always exists — the slot and its
     whole flow component stay checked. *)
  let tainted = Hashtbl.create 16 in
  List.iter
    (fun (_, _, slot, _) ->
      Hashtbl.replace tainted (Analysis.component_of anal slot) ())
    (extern_ingress m);
  (* The attacker model for points-to discharge seeds on exactly the
     memory the syntactic rules assume writable: the same overflow-window
     victims, plus what the points-to analysis itself knows (heap
     allocations, extern data, escapees, int-laundered pointers), closed
     under stored-pointer contents. *)
  let conf = Option.map Points_to.confinement points_to in
  { anal; windowed; tainted; comp_cache = Hashtbl.create 64; conf; scope }

(* The component-level obligations, cached per component root. *)
let component_reason t slot =
  let root = Analysis.component_of t.anal slot in
  match Hashtbl.find_opt t.comp_cache root with
  | Some r -> r
  | None ->
      let members = Analysis.component_of_slot t.anal slot in
      let r =
        if
          List.exists
            (fun (si : Analysis.slot_info) -> Analysis.cast_occs t.anal si <> [])
            members
        then Some Cast_in_component
        else if
          List.exists
            (fun (si : Analysis.slot_info) ->
              match si.kind with
              | Analysis.Kfield _ | Analysis.Kanon -> true
              | Analysis.Klocal | Analysis.Kparam | Analysis.Kglobal -> (
                  match si.slot with
                  | Ir.Svar id -> Analysis.address_taken t.anal id
                  | _ -> true))
            members
        then Some Component_escapes
        else None
      in
      Hashtbl.replace t.comp_cache root r;
      r

(* The categorical obligations, in the order the syntactic verdict
   checks them once the address has not escaped. The discharge path
   re-checks them: the syntactic verdict reports the *first* failing
   obligation, so an aliased code-pointer slot reads [Address_escapes] —
   discharging that must not elide the CFI check hiding behind it. *)
let categorical_reason t (slot : Ir.slot) : reason option =
  let si = Analysis.slot_info t.anal slot in
  if Ctype.is_code_pointer si.sty then Some Code_pointer
  else if si.read_only then Some Const_slot
  else if Hashtbl.mem t.tainted (Analysis.component_of t.anal slot) then
    Some Heap_value
  else
    match slot with
    | Ir.Svar id when si.kind = Analysis.Kglobal && Hashtbl.mem t.windowed id
      ->
        Some Overflow_window
    | _ -> None

let syntactic_verdict t (slot : Ir.slot) : verdict =
  match Analysis.alias_slot t.anal slot with
  | Ir.Sfield _ | Ir.Sanon _ -> Must_check Heap_reachable
  | Ir.Svar id as slot -> (
      if Analysis.address_taken t.anal id then Must_check Address_escapes
      else
        match categorical_reason t slot with
        | Some r -> Must_check r
        | None -> (
            match component_reason t slot with
            | Some r -> Must_check r
            | None -> Provably_safe))

(* Obligations a confinement proof may discharge. They all assert the
   *possibility* of an attacker-writable access path to the slot —
   exactly what points-to confinement refutes. The other four are
   categorical: code pointers and const slots are policy (never trade a
   CFI/permission check for cycles), heap-value slots always have
   substitution donors, and overflow-window victims are attacker seeds
   of the confinement itself (so they can never be proven confined). *)
let dischargeable = function
  | Heap_reachable | Address_escapes | Cast_in_component | Component_escapes ->
      true
  | Code_pointer | Const_slot | Heap_value | Overflow_window | Scope_escapes ->
      false

(* The scope checker's diagnostic refinement: when a discharge fails
   and some local in the slot's flow component provably outlives its
   frame, the blanket "escapes somewhere" reason becomes the concrete
   frame-exit. Never changes the safe/must-check partition — the scope
   lattice is coarser than the attacker closure on exactly the
   obligations elision discharges, so confinement subsumes it as a
   gate; what it adds is the *which scope ended* answer. *)
let scope_reason t (slot : Ir.slot) : reason option =
  match t.scope with
  | None -> None
  | Some sc ->
      let members = Analysis.component_of_slot t.anal slot in
      if
        List.exists
          (fun (si : Analysis.slot_info) ->
            match si.slot with
            | Ir.Svar id -> (
                (match si.kind with
                | Analysis.Klocal | Analysis.Kparam -> true
                | _ -> false)
                && Scope_escape.may_escape sc id)
            | _ -> false)
          members
      then Some Scope_escapes
      else None

let verdict t (slot : Ir.slot) : verdict =
  let v = syntactic_verdict t slot in
  match (v, t.conf) with
  | Provably_safe, _ | _, None -> v
  | Must_check r, Some conf when dischargeable r -> (
      let aslot = Analysis.alias_slot t.anal slot in
      if Points_to.confined_slot conf aslot then
        match categorical_reason t aslot with
        | Some r' -> Must_check r'
        | None -> Provably_safe
      else
        match scope_reason t aslot with Some r' -> Must_check r' | None -> v)
  | Must_check _, Some _ -> v

let elide t slot = verdict t slot = Provably_safe

(* Would the instrumentation pass touch this slot at all under the three
   RSTI mechanisms? They share one criterion, so STWC's answers for all. *)
let is_candidate t (si : Analysis.slot_info) =
  Analysis.instrument_candidate t.anal Rsti_sti.Rsti_type.Stwc si.sty si.slot

type summary = {
  candidates : int;
  safe : int;
  reasons : (reason * int) list;
}

let summary t =
  let cands =
    List.filter (is_candidate t) (Analysis.pointer_vars t.anal)
  in
  let verdicts = List.map (fun si -> verdict t si.Analysis.slot) cands in
  let reasons =
    List.filter_map
      (fun r ->
        let n = List.length (List.filter (( = ) (Must_check r)) verdicts) in
        if n = 0 then None else Some (r, n))
      [
        Heap_reachable; Address_escapes; Code_pointer; Const_slot;
        Heap_value; Overflow_window; Cast_in_component; Component_escapes;
        Scope_escapes;
      ]
  in
  {
    candidates = List.length cands;
    safe = List.length (List.filter (( = ) Provably_safe) verdicts);
    reasons;
  }
