module Ir = Rsti_ir.Ir
module Dinfo = Rsti_ir.Dinfo
module Ctype = Rsti_minic.Ctype
module SS = Set.Make (String)

type slot_kind = Klocal | Kparam | Kglobal | Kfield of string | Kanon

type slot_info = {
  slot : Ir.slot;
  key : string;
  sty : Ctype.t;
  read_only : bool;
  kind : slot_kind;
  decl_func : string option;
  mutable occ : string list;
}

let type_str ty = Ctype.to_string (Ctype.strip_all_quals ty)

let slot_key = function
  | Ir.Svar id -> "v:" ^ string_of_int id
  | Ir.Sfield (s, f) -> "f:" ^ s ^ "." ^ f
  | Ir.Sanon ty -> "a:" ^ type_str ty

type t = {
  slots : (string, slot_info) Hashtbl.t;
  comp : Rsti_util.Uf.t;                  (* flow components over slot keys *)
  tclass : Rsti_util.Uf.t;                (* STC compatible-type classes *)
  mutable cast_list : (string * string * string) list;
  (* cast occurrences: component member key -> (func, target type) *)
  cast_occ : (string, string * string) Hashtbl.t;
  mutable pp_sites : int;
  mutable pp_special : (string * Ctype.t) list;
  (* locals whose address escapes (used other than as a load/store
     address): these cannot be register-promoted and stay instrumented *)
  addr_taken : (int, unit) Hashtbl.t;
  (* Indexes built once [analyze] has made every union: flow-component
     root -> member slots sorted by key, and STC class root -> the basic
     pointer types present in the class, sorted. [indexed] is set then;
     from that point a slot created on demand joins its component. *)
  members : (string, slot_info list) Hashtbl.t;
  classes : (string, string list) Hashtbl.t;
  mutable indexed : bool;
  (* caches *)
  scope_cache : (string * string, SS.t) Hashtbl.t;
}

let by_key a b = compare a.key b.key

let find_list tbl k = Option.value (Hashtbl.find_opt tbl k) ~default:[]

let get_slot t (s : Ir.slot) ~sty ~read_only ~kind ~decl_func =
  let key = slot_key s in
  match Hashtbl.find_opt t.slots key with
  | Some si -> si
  | None ->
      let si = { slot = s; key; sty; read_only; kind; decl_func; occ = [] } in
      Hashtbl.replace t.slots key si;
      if t.indexed then begin
        let root = Rsti_util.Uf.find t.comp key in
        Hashtbl.replace t.members root
          (List.merge by_key [ si ] (find_list t.members root))
      end;
      si

(* An anonymous slot is keyed by its qualifier-stripped type, so it takes
   that type and its permission (R/W) whichever qualified form of it is
   queried first: a cast to [const char*] and one to [char*] name the
   same storage and sign under the same modifier. *)
let anon_slot t ty =
  let ty = Ctype.strip_all_quals ty in
  get_slot t (Ir.Sanon ty) ~sty:ty ~read_only:false ~kind:Kanon ~decl_func:None

let slot_info t (s : Ir.slot) =
  match Hashtbl.find_opt t.slots (slot_key s) with
  | Some si -> si
  | None -> (
      match s with
      | Ir.Sanon ty -> anon_slot t ty
      | _ -> invalid_arg ("Analysis.slot_info: unknown slot " ^ Ir.slot_to_string s))

let add_occ si f = if not (List.mem f si.occ) then si.occ <- f :: si.occ

(* ------------------------------------------------------------------ *)
(* Building the slot table                                             *)
(* ------------------------------------------------------------------ *)

let declare_variable t (dv : Dinfo.di_variable) =
  let kind =
    match dv.dv_scope with
    | Dinfo.Sc_global -> Kglobal
    | Dinfo.Sc_function _ -> if dv.dv_is_param then Kparam else Klocal
  in
  let decl_func =
    match dv.dv_scope with Dinfo.Sc_function f -> Some f | Dinfo.Sc_global -> None
  in
  let si =
    get_slot t (Ir.Svar dv.dv_id) ~sty:dv.dv_type
      ~read_only:(Ctype.declared_read_only dv.dv_type) ~kind ~decl_func
  in
  Option.iter (fun f -> add_occ si f) decl_func;
  si

let declare_field t sname fname fty =
  let si =
    get_slot t (Ir.Sfield (sname, fname)) ~sty:fty ~read_only:(Ctype.declared_read_only fty)
      ~kind:(Kfield sname) ~decl_func:None
  in
  si

(* ------------------------------------------------------------------ *)
(* Flow tracing                                                        *)
(* ------------------------------------------------------------------ *)

(* Map each register to its defining instruction (registers are assigned
   once, so the map is flow-insensitive). Parameters map to None. *)
let reg_defs (fn : Ir.func) =
  let defs = Hashtbl.create 64 in
  Ir.iter_instrs
    (fun ins ->
      match ins.i with
      | Ir.Alloca { dst; _ } | Ir.Load { dst; _ } | Ir.Gep { dst; _ }
      | Ir.Gepidx { dst; _ } | Ir.Bitcast { dst; _ }
      | Ir.Binop { dst; _ } | Ir.Neg { dst; _ } | Ir.Lognot { dst; _ }
      | Ir.Bitnot { dst; _ } | Ir.Cast_num { dst; _ } ->
          Hashtbl.replace defs dst ins.i
      | Ir.Call { dst = Some dst; _ } -> Hashtbl.replace defs dst ins.i
      | Ir.Call { dst = None; _ } -> ()
      | Ir.Pac p -> Hashtbl.replace defs p.p_dst ins.i
      | Ir.Pp (Ir.Pp_sign { dst; _ })
      | Ir.Pp (Ir.Pp_auth { dst; _ })
      | Ir.Pp (Ir.Pp_add_tbi { dst; _ }) ->
          Hashtbl.replace defs dst ins.i
      | Ir.Pp (Ir.Pp_add _) | Ir.Store _ -> ())
    fn;
  defs

(* Trace a value back to the slot (or return pseudo-slot) it was loaded
   from, looking through bitcasts. *)
let rec trace_source ?(defined = fun _ -> true) defs (v : Ir.value) : string option =
  match v with
  | Ir.Reg r -> (
      match Hashtbl.find_opt defs r with
      | Some (Ir.Load { slot; _ }) -> Some (slot_key slot)
      | Some (Ir.Bitcast { src; _ }) -> trace_source ~defined defs src
      (* Returns of *defined* functions are flow nodes; extern returns
         (malloc above all) are fresh values, not flows — treating malloc
         as one node would merge every allocation site into a single
         component. *)
      | Some (Ir.Call { callee = Ir.Direct f; _ }) ->
          if defined f then Some ("ret:" ^ f) else None
      | _ -> None)
  | Ir.Imm _ | Ir.Fimm _ | Ir.Global _ | Ir.Funcaddr _ | Ir.Str _ | Ir.Null ->
      None

(* Is a value (looking through bitcasts) an argument position of any call
   in the function? Used for the pointer-to-pointer census. *)
let value_feeds_call (fn : Ir.func) (r : Ir.reg) =
  Ir.fold_instrs
    (fun acc ins ->
      acc
      ||
      match ins.i with
      | Ir.Call { args; _ } -> List.exists (fun a -> a = Ir.Reg r) args
      | _ -> false)
    false fn

(* ------------------------------------------------------------------ *)
(* The analysis proper                                                 *)
(* ------------------------------------------------------------------ *)

let is_universal ty =
  match Ctype.strip_all_quals ty with
  | Ctype.Ptr Ctype.Void | Ctype.Ptr (Ctype.Ptr Ctype.Void) -> true
  | Ctype.Ptr Ctype.Char -> true
  | _ -> false

let analyze (m : Ir.modul) : t =
  let t =
    {
      slots = Hashtbl.create 256;
      comp = Rsti_util.Uf.create ();
      tclass = Rsti_util.Uf.create ();
      cast_list = [];
      cast_occ = Hashtbl.create 64;
      pp_sites = 0;
      pp_special = [];
      addr_taken = Hashtbl.create 64;
      members = Hashtbl.create 256;
      classes = Hashtbl.create 64;
      indexed = false;
      scope_cache = Hashtbl.create 256;
    }
  in
  (* basic pointer types present *)
  let all_types = ref SS.empty in
  let note_type ty =
    if Ctype.is_pointer ty then all_types := SS.add (type_str ty) !all_types
  in
  (* Struct fields. *)
  List.iter
    (fun (sname, fields) ->
      List.iter
        (fun (fname, fty) ->
          let si = declare_field t sname fname fty in
          ignore si;
          note_type fty)
        fields)
    m.m_structs;
  (* Globals. *)
  List.iter
    (fun (g : Ir.global_def) ->
      let si = declare_variable t (Dinfo.variable_of_var g.gvar) in
      ignore si;
      note_type g.gvar.v_ty)
    m.m_globals;
  let global_ids = Hashtbl.create 32 in
  List.iter
    (fun (g : Ir.global_def) ->
      Hashtbl.replace global_ids g.gvar.Rsti_minic.Tast.v_name
        g.gvar.Rsti_minic.Tast.v_id)
    m.m_globals;
  (* Function params map: name -> param vars. *)
  let params_of = Hashtbl.create 32 in
  List.iter
    (fun (fn : Ir.func) -> Hashtbl.replace params_of fn.name fn.params)
    m.m_funcs;
  let defined name = Hashtbl.mem params_of name in
  (* Walk every function. *)
  List.iter
    (fun (fn : Ir.func) ->
      let defs = reg_defs fn in
      (* declarations from allocas *)
      Ir.iter_instrs
        (fun ins ->
          match ins.i with
          | Ir.Alloca { dv = Some dv; _ } ->
              ignore (declare_variable t dv);
              note_type dv.dv_type
          | _ -> ())
        fn;
      (* address-taken analysis (the mem2reg criterion, LLVM's
         isNonEscapingLocalObject): an alloca whose result is only ever a
         load/store address can live in a register at -O2 and needs no
         instrumentation; any other use of the address escapes it. *)
      let alloca_var = Hashtbl.create 16 in
      Ir.iter_instrs
        (fun ins ->
          match ins.i with
          | Ir.Alloca { dst; dv = Some dv; _ } ->
              Hashtbl.replace alloca_var dst dv.Dinfo.dv_id
          | _ -> ())
        fn;
      let mark v =
        match v with
        | Ir.Reg r -> (
            match Hashtbl.find_opt alloca_var r with
            | Some id -> Hashtbl.replace t.addr_taken id ()
            | None -> ())
        | Ir.Global g -> (
            match Hashtbl.find_opt global_ids g with
            | Some id -> Hashtbl.replace t.addr_taken id ()
            | None -> ())
        | _ -> ()
      in
      Ir.iter_instrs
        (fun ins ->
          match ins.i with
          | Ir.Load { addr = _; _ } -> () (* address position: fine *)
          | Ir.Store { src; addr = _; _ } -> mark src
          | Ir.Gep { base; _ } -> mark base
          | Ir.Gepidx { base; idx; _ } -> mark base; mark idx
          | Ir.Bitcast { src; _ } -> mark src
          | Ir.Binop { a; b; _ } -> mark a; mark b
          | Ir.Neg { src; _ } | Ir.Lognot { src; _ } | Ir.Bitnot { src; _ }
          | Ir.Cast_num { src; _ } ->
              mark src
          | Ir.Call { callee; args; _ } ->
              (match callee with Ir.Indirect c -> mark c | Ir.Direct _ -> ());
              List.iter mark args
          | Ir.Alloca _ | Ir.Pac _ | Ir.Pp _ -> ())
        fn;
      Array.iter
        (fun (b : Ir.block) ->
          match b.term with
          | Ir.Ret (Some v) -> mark v
          | Ir.Condbr (c, _, _) -> mark c
          | Ir.Ret None | Ir.Br _ | Ir.Unreachable -> ())
        fn.blocks;
      (* occurrences, flow edges, casts *)
      Ir.iter_instrs
        (fun ins ->
          let func = match ins.dbg with Some d -> d.dl_func | None -> fn.name in
          match ins.i with
          | Ir.Load { slot; ty; dst; _ } ->
              note_type ty;
              let si = slot_info t slot in
              add_occ si func;
              (* census: loading a pointer-to-pointer *)
              if Ctype.is_pointer_to_pointer ty then begin
                t.pp_sites <- t.pp_sites + 1;
                ignore dst
              end
          | Ir.Store { slot; ty; src; _ } ->
              note_type ty;
              let si = slot_info t slot in
              add_occ si func;
              if Ctype.is_pointer ty then
                Option.iter
                  (fun skey -> Rsti_util.Uf.union t.comp skey si.key)
                  (trace_source ~defined defs src)
          | Ir.Bitcast { src; from_ty; to_ty; dst } ->
              if Ctype.is_pointer from_ty && Ctype.is_pointer to_ty then begin
                let fs = type_str from_ty and ts = type_str to_ty in
                note_type from_ty;
                note_type to_ty;
                t.cast_list <- (func, fs, ts) :: t.cast_list;
                Rsti_util.Uf.union t.tclass fs ts;
                (match trace_source ~defined defs src with
                | Some skey -> Hashtbl.add t.cast_occ skey (func, ts)
                | None -> ());
                (* pp census: double pointer cast to a universal type whose
                   result feeds a call argument -> original type lost. *)
                if
                  Ctype.is_pointer_to_pointer from_ty
                  && is_universal to_ty
                  && (not (Ctype.is_pointer_to_pointer to_ty
                           && Ctype.equal
                                (Ctype.strip_all_quals from_ty)
                                (Ctype.strip_all_quals to_ty)))
                  && value_feeds_call fn dst
                then
                  t.pp_special <-
                    (func, Ctype.strip_all_quals from_ty) :: t.pp_special
              end
          | Ir.Call { callee; args; arg_tys; _ } -> (
              (* census: double pointers passed as arguments *)
              List.iter
                (fun ty ->
                  if Ctype.is_pointer_to_pointer ty then
                    t.pp_sites <- t.pp_sites + 1)
                arg_tys;
              match callee with
              | Ir.Direct f -> (
                  match Hashtbl.find_opt params_of f with
                  | Some params ->
                      List.iteri
                        (fun j arg ->
                          match List.nth_opt params j with
                          | Some (p : Rsti_minic.Tast.var)
                            when Ctype.is_pointer p.v_ty -> (
                              match trace_source ~defined defs arg with
                              | Some skey ->
                                  Rsti_util.Uf.union t.comp skey
                                    (slot_key (Ir.Svar p.v_id))
                              | None -> ())
                          | _ -> ())
                        args
                  | None -> ())
              | Ir.Indirect _ -> ())
          | Ir.Alloca _ | Ir.Gep _ | Ir.Gepidx _ | Ir.Binop _ | Ir.Neg _
          | Ir.Lognot _ | Ir.Bitnot _ | Ir.Cast_num _ | Ir.Pac _ | Ir.Pp _ ->
              ())
        fn;
      (* return flow *)
      Array.iter
        (fun (b : Ir.block) ->
          match b.term with
          | Ir.Ret (Some v) when Ctype.is_pointer fn.ret -> (
              match trace_source ~defined defs v with
              | Some skey -> Rsti_util.Uf.union t.comp skey ("ret:" ^ fn.name)
              | None -> ())
          | _ -> ())
        fn.blocks)
    m.m_funcs;
  (* Index the final components and classes: consing in descending order
     leaves every list ascending. *)
  Hashtbl.fold (fun _ si acc -> si :: acc) t.slots []
  |> List.sort (fun a b -> by_key b a)
  |> List.iter (fun si ->
         let root = Rsti_util.Uf.find t.comp si.key in
         Hashtbl.replace t.members root (si :: find_list t.members root));
  Seq.iter
    (fun u ->
      let root = Rsti_util.Uf.find t.tclass u in
      Hashtbl.replace t.classes root (u :: find_list t.classes root))
    (SS.to_rev_seq !all_types);
  t.indexed <- true;
  t

(* ------------------------------------------------------------------ *)
(* Scopes and RSTI-types                                                *)
(* ------------------------------------------------------------------ *)

let component_of t slot = Rsti_util.Uf.find t.comp (slot_key slot)

let component_of_slot t slot = find_list t.members (component_of t slot)

let cast_occs t (si : slot_info) = Hashtbl.find_all t.cast_occ si.key

(* Scope of (component, basic type): occurrence functions of members with
   that type, cast sites targeting that type from inside the component,
   and the struct names of member fields of that type. *)
let scope_for t ~root ~tstr : SS.t =
  match Hashtbl.find_opt t.scope_cache (root, tstr) with
  | Some s -> s
  | None ->
      let members = find_list t.members root in
      let s = ref SS.empty in
      List.iter
        (fun si ->
          if type_str si.sty = tstr then begin
            List.iter (fun f -> s := SS.add f !s) si.occ;
            match si.kind with
            | Kfield sname -> s := SS.add ("struct " ^ sname) !s
            | Klocal | Kparam | Kglobal | Kanon -> ()
          end)
        members;
      (* cast occurrences inside the component that target this type *)
      List.iter
        (fun si ->
          List.iter
            (fun (func, target) -> if target = tstr then s := SS.add func !s)
            (Hashtbl.find_all t.cast_occ si.key))
        members;
      if SS.is_empty !s then s := SS.singleton "<unused>";
      Hashtbl.replace t.scope_cache (root, tstr) !s;
      !s

let stwc_rsti t si =
  let root = Rsti_util.Uf.find t.comp si.key in
  let tstr = type_str si.sty in
  let scope = scope_for t ~root ~tstr in
  Rsti_type.make ~types:[ tstr ] ~scope:(SS.elements scope) ~read_only:si.read_only

let type_class_names t tstr =
  match Hashtbl.find_opt t.classes (Rsti_util.Uf.find t.tclass tstr) with
  | Some cls -> cls
  | None -> [ tstr ]

let type_class_of t ty = type_class_names t (type_str ty)

(* STC: compatible (cast-connected) types merge into one class; the
   scope is the union, over the slot's *flow component*, of the scopes of
   every class member type. Scope separation between unconnected slots is
   preserved (a Teacher's and a Student's same-typed fields stay
   distinct), which is what lets STC still stop the PittyPat replay while
   missing substitutions *within* a merged class (Table 2). *)
let stc_rsti t si =
  let root = Rsti_util.Uf.find t.comp si.key in
  let cls = type_class_of t si.sty in
  let scope =
    List.fold_left (fun acc u -> SS.union acc (scope_for t ~root ~tstr:u)) SS.empty cls
  in
  Rsti_type.make ~types:cls ~scope:(SS.elements scope) ~read_only:si.read_only

(* A pointer variable whose address escapes can be written through an
   arbitrary same-typed pointer; the sign and auth sites on the two paths
   must agree, so such variables share the anonymous (type-keyed) slot's
   RSTI-type. *)
let alias_slot t slot =
  match slot with
  | Ir.Svar id ->
      let si = slot_info t slot in
      if
        Hashtbl.mem t.addr_taken id
        && Ctype.is_pointer si.sty
        && (si.kind = Klocal || si.kind = Kglobal || si.kind = Kparam)
      then Ir.Sanon (Ctype.strip_all_quals si.sty)
      else slot
  | Ir.Sfield _ | Ir.Sanon _ -> slot

let rsti_of t mech slot =
  let slot = alias_slot t slot in
  let si = slot_info t slot in
  match mech with
  | Rsti_type.Stwc | Rsti_type.Stl -> stwc_rsti t si
  | Rsti_type.Stc -> stc_rsti t si
  | Rsti_type.Parts ->
      Rsti_type.make ~types:[ type_str si.sty ] ~scope:[ "<any>" ] ~read_only:false
  | Rsti_type.Nop -> invalid_arg "Analysis.rsti_of: Nop has no RSTI-types"

let modifier_of t mech slot =
  let slot = alias_slot t slot in
  match mech with
  | Rsti_type.Parts -> Rsti_type.parts_modifier (type_str (slot_info t slot).sty)
  | _ -> Rsti_type.modifier (rsti_of t mech slot)

let key_for ty = if Ctype.is_code_pointer ty then Rsti_pa.Key.IA else Rsti_pa.Key.DA

(* The instrumented-slot criterion, shared by the instrumenter and the
   static attack-surface analysis so both enumerate exactly the same
   sign/auth population. Memory that -O2 register-promotes (parameters,
   non-escaping locals) has no load/store traffic in the paper's
   optimized builds and so is not instrumented — except under PARTS,
   whose unoptimized codegen instruments everything. *)
let instrument_candidate t mech ty slot =
  Ctype.is_pointer ty
  &&
  match mech with
  | Rsti_type.Nop -> false
  | Rsti_type.Parts -> true
  | Rsti_type.Stwc | Rsti_type.Stc | Rsti_type.Stl -> (
      match slot with
      | Ir.Sfield _ | Ir.Sanon _ -> true
      | Ir.Svar id -> (
          match (slot_info t slot).kind with
          | Kglobal | Kfield _ | Kanon -> true
          | Klocal | Kparam -> Hashtbl.mem t.addr_taken id))

let casts t = List.rev t.cast_list

let pointer_vars t =
  Hashtbl.fold
    (fun _ si acc ->
      if Ctype.is_pointer si.sty && si.kind <> Kanon then si :: acc else acc)
    t.slots []
  |> List.sort by_key

(* ------------------------------------------------------------------ *)
(* Table 3                                                             *)
(* ------------------------------------------------------------------ *)

type stats = {
  nt : int;
  rt_stwc : int;
  rt_stc : int;
  nv : int;
  largest_ecv_stwc : int;
  largest_ecv_stc : int;
  largest_ect_stwc : int;
  largest_ect_stc : int;
}

let stats t =
  let vars = pointer_vars t in
  let nv = List.length vars in
  let nt = SS.cardinal (SS.of_list (List.map (fun si -> type_str si.sty) vars)) in
  let group rsti_fn =
    let tbl = Hashtbl.create 64 in
    List.iter
      (fun si ->
        let rt = rsti_fn t si in
        let key = Rsti_type.to_string rt in
        let n, types =
          match Hashtbl.find_opt tbl key with
          | Some (n, types) -> (n, types)
          | None -> (0, rt.Rsti_type.rt_types)
        in
        Hashtbl.replace tbl key (n + 1, types))
      vars;
    let rt_count = Hashtbl.length tbl in
    let largest_ecv = Hashtbl.fold (fun _ (n, _) acc -> max acc n) tbl 0 in
    let largest_ect =
      Hashtbl.fold (fun _ (_, types) acc -> max acc (List.length types)) tbl 0
    in
    (rt_count, largest_ecv, largest_ect)
  in
  let rt_stwc, largest_ecv_stwc, largest_ect_stwc = group stwc_rsti in
  let rt_stc, largest_ecv_stc, largest_ect_stc = group stc_rsti in
  {
    nt;
    rt_stwc;
    rt_stc;
    nv;
    largest_ecv_stwc;
    largest_ecv_stc;
    largest_ect_stwc;
    largest_ect_stc;
  }

(* ------------------------------------------------------------------ *)
(* Pointer-to-pointer census and CE table                              *)
(* ------------------------------------------------------------------ *)

type pp_census = {
  pp_total_sites : int;
  pp_special : (string * Ctype.t) list;
}

let pp_census t = { pp_total_sites = t.pp_sites; pp_special = List.rev t.pp_special }

let ce_table (t : t) =
  let seen = Hashtbl.create 8 in
  let next = ref 0 in
  List.rev t.pp_special
  |> List.filter_map (fun (_, ty) ->
         let key = type_str ty in
         if Hashtbl.mem seen key then None
         else begin
           Hashtbl.replace seen key ();
           incr next;
           if !next > 255 then None (* CE is 8 bits; 0 reserved *)
           else
             Some (ty, !next, Rsti_type.parts_modifier ("ppfe:" ^ key))
         end)

let address_taken t id = Hashtbl.mem t.addr_taken id
