module Ir = Rsti_ir.Ir
module Ctype = Rsti_minic.Ctype
module Analysis = Rsti_sti.Analysis
module Rsti_type = Rsti_sti.Rsti_type

type static_counts = {
  signs : int;
  auths : int;
  resigns : int;
  strips : int;
  pp_ops : int;
  elided : int;
}

let zero_counts =
  { signs = 0; auths = 0; resigns = 0; strips = 0; pp_ops = 0; elided = 0 }

let add_counts a b =
  {
    signs = a.signs + b.signs;
    auths = a.auths + b.auths;
    resigns = a.resigns + b.resigns;
    strips = a.strips + b.strips;
    pp_ops = a.pp_ops + b.pp_ops;
    elided = a.elided + b.elided;
  }

type result = {
  modul : Ir.modul;
  pp_table : (int * int64) list;
  counts : static_counts;
  per_func : (string * static_counts) list;
}

(* ------------------------------------------------------------------ *)
(* Per-module pre-analysis for the pointer-to-pointer mechanism        *)
(* ------------------------------------------------------------------ *)

type pp_plan = {
  (* caller side: bitcast result registers to wrap, per function *)
  casts_to_wrap : (string * Ir.reg, int (* CE *)) Hashtbl.t;
  (* callee side: parameter variable ids whose loads use pp_auth *)
  protected_params : (int, unit) Hashtbl.t;
  table : (int * int64) list;
}

let build_pp_plan anal (m : Ir.modul) : pp_plan =
  let ce_by_type = Hashtbl.create 8 in
  let table = ref [] in
  List.iter
    (fun (ty, ce, fe) ->
      Hashtbl.replace ce_by_type (Ctype.to_string (Ctype.strip_all_quals ty)) ce;
      table := (ce, fe) :: !table)
    (Analysis.ce_table anal);
  let casts_to_wrap = Hashtbl.create 8 in
  let protected_params = Hashtbl.create 8 in
  let defined = Hashtbl.create 16 in
  List.iter (fun (f : Ir.func) -> Hashtbl.replace defined f.name f) m.m_funcs;
  List.iter
    (fun (fn : Ir.func) ->
      (* map: reg -> (from_ty) for double-pointer-to-universal bitcasts *)
      let cast_regs = Hashtbl.create 8 in
      Ir.iter_instrs
        (fun ins ->
          match ins.i with
          | Ir.Bitcast { dst; from_ty; to_ty; _ }
            when Ctype.is_pointer_to_pointer from_ty
                 && (match Ctype.strip_all_quals to_ty with
                    | Ctype.Ptr Ctype.Void | Ctype.Ptr (Ctype.Ptr Ctype.Void) -> true
                    | Ctype.Ptr Ctype.Char -> true
                    | _ -> false)
                 && not (Ctype.equal (Ctype.strip_all_quals from_ty)
                           (Ctype.strip_all_quals to_ty)) ->
              Hashtbl.replace cast_regs dst
                (Ctype.to_string (Ctype.strip_all_quals from_ty))
          | _ -> ())
        fn;
      Ir.iter_instrs
        (fun ins ->
          match ins.i with
          | Ir.Call { callee; args; _ } ->
              List.iteri
                (fun j arg ->
                  match arg with
                  | Ir.Reg r when Hashtbl.mem cast_regs r -> (
                      let tstr = Hashtbl.find cast_regs r in
                      match Hashtbl.find_opt ce_by_type tstr with
                      | Some ce ->
                          Hashtbl.replace casts_to_wrap (fn.name, r) ce;
                          (match callee with
                          | Ir.Direct f -> (
                              match Hashtbl.find_opt defined f with
                              | Some callee_fn -> (
                                  match List.nth_opt callee_fn.params j with
                                  | Some p ->
                                      Hashtbl.replace protected_params
                                        p.Rsti_minic.Tast.v_id ()
                                  | None -> ())
                              | None -> ())
                          | Ir.Indirect _ -> ())
                      | None -> ())
                  | _ -> ())
                args
          | _ -> ())
        fn)
    m.m_funcs;
  { casts_to_wrap; protected_params; table = List.rev !table }

(* ------------------------------------------------------------------ *)
(* The rewrite                                                         *)
(* ------------------------------------------------------------------ *)

type fn_state = {
  mutable next_reg : int;
  mutable c : static_counts;
  (* registers defined by pp instructions: loads through them skip auth *)
  pp_regs : (Ir.reg, unit) Hashtbl.t;
}

let fresh st =
  let r = st.next_reg in
  st.next_reg <- r + 1;
  r

(* The slot address rides along on every sign/auth: the PAC backend only
   consumes it for STL's Mloc modifiers, but the shadow-MAC backend
   (section 7's "RSTI with mechanisms other than PAC") keys its MAC
   table by it. *)
let modifier_for mech anal slot (addr : Ir.value) : Ir.modifier * Ir.value =
  let h = Analysis.modifier_of anal mech slot in
  match mech with
  | Rsti_type.Stl -> (Ir.Mloc h, addr)
  | _ -> (Ir.Mconst h, addr)

let instrument_function ~elide mech anal plan externs (fn : Ir.func) :
    static_counts =
  let st = { next_reg = fn.nregs; c = zero_counts; pp_regs = Hashtbl.create 4 } in
  (* Elision (the staticcheck prover's verdicts): a slot whose every
     reaching store is a same-RSTI-type sign in its own flow component,
     with no escaping address and no attacker-writable window, keeps
     baseline loads/stores. Sign and auth are dropped together, so the
     raw-in-flight discipline is preserved. PARTS models a compiler
     without the whole-program proof and never elides. *)
  let elide_slot slot =
    mech <> Rsti_type.Parts && elide (Analysis.alias_slot anal slot)
  in
  let param_is_pp (slot : Ir.slot) =
    match slot with
    | Ir.Svar id -> Hashtbl.mem plan.protected_params id
    | _ -> false
  in
  (* Register definition map on the ORIGINAL code, to detect loads whose
     address came from a pp instruction's output (the callee's inner
     access through an authenticated double pointer). *)
  let pp_addr_reg r = Hashtbl.mem st.pp_regs r in
  let rewrite_instr (ins : Ir.instr) : Ir.instr list =
    match ins.i with
    | Ir.Load { dst; addr; ty; slot } when param_is_pp slot && Ctype.is_pointer ty ->
        (* pp-protected parameter: authenticate with the pp library, which
           recovers the original type's FE modifier from the CE tag. *)
        let tmp = fresh st in
        Hashtbl.replace st.pp_regs dst ();
        st.c <- add_counts st.c { zero_counts with pp_ops = 1; auths = 1 };
        [
          { ins with i = Ir.Load { dst = tmp; addr; ty; slot } };
          { ins with i = Ir.Pp (Ir.Pp_auth { dst; src = Ir.Reg tmp; slot_addr = Ir.Null }) };
        ]
    | Ir.Load { ty; slot; addr; _ }
      when Analysis.instrument_candidate anal mech ty slot
           && elide_slot slot
           && not (match addr with Ir.Reg r -> pp_addr_reg r | _ -> false) ->
        st.c <- add_counts st.c { zero_counts with elided = 1 };
        [ ins ]
    | Ir.Load { dst; addr; ty; slot }
      when Analysis.instrument_candidate anal mech ty slot
           && not (match addr with Ir.Reg r -> pp_addr_reg r | _ -> false) ->
        let tmp = fresh st in
        let m, slot_addr = modifier_for mech anal slot addr in
        st.c <- add_counts st.c { zero_counts with auths = 1 };
        [
          { ins with i = Ir.Load { dst = tmp; addr; ty; slot } };
          {
            ins with
            i =
              Ir.Pac
                {
                  p_kind = Ir.Kauth;
                  p_dst = dst;
                  p_src = Ir.Reg tmp;
                  p_key = Analysis.key_for ty;
                  p_mod = m;
                  p_mod_from = m;
                  p_slot_addr = slot_addr;
                };
          };
        ]
    | Ir.Store { ty; slot; addr; _ }
      when Analysis.instrument_candidate anal mech ty slot
           && elide_slot slot
           && (not (param_is_pp slot))
           && not (match addr with Ir.Reg r -> pp_addr_reg r | _ -> false) ->
        st.c <- add_counts st.c { zero_counts with elided = 1 };
        [ ins ]
    | Ir.Store { src; addr; ty; slot }
      when Analysis.instrument_candidate anal mech ty slot
           && (not (param_is_pp slot))
           && not (match addr with Ir.Reg r -> pp_addr_reg r | _ -> false) ->
        let tmp = fresh st in
        let m, slot_addr = modifier_for mech anal slot addr in
        st.c <- add_counts st.c { zero_counts with signs = 1 };
        [
          {
            ins with
            i =
              Ir.Pac
                {
                  p_kind = Ir.Ksign;
                  p_dst = tmp;
                  p_src = src;
                  p_key = Analysis.key_for ty;
                  p_mod = m;
                  p_mod_from = m;
                  p_slot_addr = slot_addr;
                };
          };
          { ins with i = Ir.Store { src = Ir.Reg tmp; addr; ty; slot } };
        ]
    | Ir.Bitcast { dst; src; from_ty; to_ty }
      when (mech = Rsti_type.Stwc || mech = Rsti_type.Stl)
           && Ctype.is_pointer from_ty && Ctype.is_pointer to_ty
           && (not (Ctype.equal (Ctype.strip_all_quals from_ty)
                      (Ctype.strip_all_quals to_ty)))
           && not (Hashtbl.mem plan.casts_to_wrap (fn.name, dst)) ->
        (* Legitimate cast: authenticate under the source RSTI-type and
           re-sign under the target's (section 4.7.5). In-flight values
           are raw in this codebase's discipline, so the pair acts as a
           checked identity; its cost and counts are real. *)
        let tmp = fresh st in
        let from_mod = Analysis.modifier_of anal mech (Ir.Sanon from_ty) in
        let to_mod = Analysis.modifier_of anal mech (Ir.Sanon to_ty) in
        st.c <- add_counts st.c { zero_counts with resigns = 1 };
        [
          { ins with i = Ir.Bitcast { dst = tmp; src; from_ty; to_ty } };
          {
            ins with
            i =
              Ir.Pac
                {
                  p_kind = Ir.Kresign;
                  p_dst = dst;
                  p_src = Ir.Reg tmp;
                  p_key = Analysis.key_for to_ty;
                  p_mod = Ir.Mconst to_mod;
                  p_mod_from = Ir.Mconst from_mod;
                  p_slot_addr = Ir.Null;
                };
          };
        ]
    | Ir.Call ({ callee; args; arg_tys; _ } as call) ->
        let pre = ref [] in
        let args' =
          List.mapi
            (fun j arg ->
              let ty = List.nth_opt arg_tys j in
              match arg with
              | Ir.Reg r when Hashtbl.mem plan.casts_to_wrap (fn.name, r) ->
                  (* pp mechanism at the call site (Figure 7). *)
                  let ce = Hashtbl.find plan.casts_to_wrap (fn.name, r) in
                  let t1 = fresh st and t2 = fresh st in
                  st.c <- add_counts st.c { zero_counts with pp_ops = 3; signs = 1 };
                  pre :=
                    !pre
                    @ [
                        { ins with i = Ir.Pp (Ir.Pp_add { pp_addr = arg; ce }) };
                        { ins with
                          i = Ir.Pp (Ir.Pp_sign
                                       { dst = t1; src = arg; ce; slot_addr = Ir.Null }) };
                        { ins with
                          i = Ir.Pp (Ir.Pp_add_tbi { dst = t2; src = Ir.Reg t1; ce }) };
                      ];
                  Ir.Reg t2
              | _ -> (
                  match (callee, ty) with
                  | Ir.Indirect _, Some ty
                  | Ir.Direct _, Some ty
                    when (match callee with
                         | Ir.Direct f -> not (Hashtbl.mem externs f)
                         | Ir.Indirect _ -> true)
                         && Ctype.is_pointer ty && mech = Rsti_type.Stl ->
                      (* STL: the pointer's location changes when it is
                         passed, so it is authenticated under the caller's
                         binding and re-signed for the callee's (4.6). In
                         this codebase's raw-in-flight discipline the pair
                         is a checked identity with real cost/counts. *)
                      let tmp = fresh st in
                      let am = Analysis.modifier_of anal mech (Ir.Sanon ty) in
                      st.c <- add_counts st.c { zero_counts with resigns = 1 };
                      pre :=
                        !pre
                        @ [
                            {
                              ins with
                              i =
                                Ir.Pac
                                  {
                                    p_kind = Ir.Kresign;
                                    p_dst = tmp;
                                    p_src = arg;
                                    p_key = Analysis.key_for ty;
                                    p_mod = Ir.Mconst am;
                                    p_mod_from = Ir.Mconst am;
                                    p_slot_addr = Ir.Null;
                                  };
                            };
                          ];
                      Ir.Reg tmp
                  | Ir.Direct f, Some ty
                    when Hashtbl.mem externs f && Ctype.is_pointer ty
                         && mech <> Rsti_type.Nop ->
                      (* external library call: strip the PAC (4.6) *)
                      let tmp = fresh st in
                      st.c <- add_counts st.c { zero_counts with strips = 1 };
                      pre :=
                        !pre
                        @ [
                            {
                              ins with
                              i =
                                Ir.Pac
                                  {
                                    p_kind = Ir.Kstrip;
                                    p_dst = tmp;
                                    p_src = arg;
                                    p_key = Analysis.key_for ty;
                                    p_mod = Ir.Mconst 0L;
                                    p_mod_from = Ir.Mconst 0L;
                                    p_slot_addr = Ir.Null;
                                  };
                            };
                          ];
                      Ir.Reg tmp
                  | _ -> arg))
            args
        in
        !pre @ [ { ins with i = Ir.Call { call with args = args' } } ]
    | _ -> [ ins ]
  in
  let rewrite_term (b : Ir.block) =
    (* STL: a returned pointer moves to the caller's location and is
       re-signed on the way out, symmetric to the argument case. *)
    match b.Ir.term with
    | Ir.Ret (Some v) when mech = Rsti_type.Stl && Ctype.is_pointer fn.ret ->
        let tmp = fresh st in
        let am = Analysis.modifier_of anal mech (Ir.Sanon fn.ret) in
        st.c <- add_counts st.c { zero_counts with resigns = 1 };
        let resign =
          {
            Ir.i =
              Ir.Pac
                {
                  p_kind = Ir.Kresign;
                  p_dst = tmp;
                  p_src = v;
                  p_key = Analysis.key_for fn.ret;
                  p_mod = Ir.Mconst am;
                  p_mod_from = Ir.Mconst am;
                  p_slot_addr = Ir.Null;
                };
            dbg = None;
          }
        in
        (b.Ir.instrs @ [ resign ], Ir.Ret (Some (Ir.Reg tmp)))
    | t -> (b.Ir.instrs, t)
  in
  let new_blocks =
    Array.map
      (fun (b : Ir.block) ->
        let instrs = List.concat_map rewrite_instr b.instrs in
        let instrs, term = rewrite_term { b with Ir.instrs } in
        { b with Ir.instrs; term })
      fn.blocks
  in
  fn.blocks <- new_blocks;
  fn.nregs <- st.next_reg;
  st.c

(* Deep-copy a function so instrumentation never mutates the input. *)
let copy_func (fn : Ir.func) : Ir.func =
  {
    fn with
    Ir.blocks =
      Array.map (fun (b : Ir.block) -> { b with Ir.instrs = b.instrs }) fn.blocks;
  }

let instrument ?(elide = fun _ -> false) mech anal (m : Ir.modul) : result =
  if mech = Rsti_type.Nop then
    { modul = m; pp_table = []; counts = zero_counts; per_func = [] }
  else begin
    let funcs = List.map copy_func m.m_funcs in
    let m' = { m with Ir.m_funcs = funcs } in
    let plan = build_pp_plan anal m' in
    let externs = Hashtbl.create 16 in
    let defined = Hashtbl.create 16 in
    List.iter (fun (f : Ir.func) -> Hashtbl.replace defined f.name ()) funcs;
    List.iter
      (fun (name, _) ->
        if not (Hashtbl.mem defined name) then Hashtbl.replace externs name ())
      m.m_externs;
    let per_func =
      List.map
        (fun fn ->
          (fn.Ir.name, instrument_function ~elide mech anal plan externs fn))
        funcs
    in
    let counts = List.fold_left (fun acc (_, c) -> add_counts acc c) zero_counts per_func in
    { modul = m'; pp_table = plan.table; counts; per_func }
  end
