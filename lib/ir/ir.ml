(* The LLVM-like intermediate representation.

   Shape: register machine over basic blocks, alloca-based locals (the
   form clang emits at -O0, which is also what the paper's load/store
   instrumentation operates on). Virtual registers are assigned exactly
   once by the lowering, so passes may treat the IR as SSA without phis
   (mutation goes through memory).

   Every load/store carries (a) a [slot] identifying *what* is accessed —
   a named variable, a struct field, or an anonymous deref target keyed by
   its type — which is the hook the STI analysis and the RSTI
   instrumentation key modifiers on, and (b) a [Dinfo.di_location] giving
   the enclosing function, mirroring LLVM's !dbg attachments. *)

module Ctype = Rsti_minic.Ctype

type reg = int

type value =
  | Imm of int64
  | Fimm of float
  | Reg of reg
  | Global of string   (* address of a global variable *)
  | Funcaddr of string (* address of a function (code pointer) *)
  | Str of int         (* address of string-table entry *)
  | Null

(* What a memory access touches, as recoverable from IR + debug info. *)
type slot =
  | Svar of int                  (* a named variable's storage (by var id) *)
  | Sfield of string * string    (* a struct field: (struct name, field) *)
  | Sanon of Ctype.t             (* reached through an arbitrary pointer:
                                    keyed by the slot's static type *)

type float_op = Fop | Iop  (* float or integer flavour of an arithmetic op *)

(* PA modifiers as materialized by the RSTI pass: a compile-time constant
   derived from the RSTI-type, optionally combined with the address of the
   accessed slot at runtime (the STL mechanism's "&p"). *)
type modifier =
  | Mconst of int64
  | Mloc of int64   (* constant XOR slot address, computed at runtime *)

type pac_kind =
  | Ksign          (* pac* : add a PAC *)
  | Kauth          (* aut* : verify and strip *)
  | Kresign        (* aut+pac fused at a legitimate cast (STWC/STL) *)
  | Kstrip         (* xpac : strip without checking (external calls) *)

type pac = {
  p_kind : pac_kind;
  p_dst : reg;
  p_src : value;
  p_key : Rsti_pa.Key.which;
  p_mod : modifier;          (* for Kresign: the *target* modifier *)
  p_mod_from : modifier;     (* Kresign only: the source modifier *)
  p_slot_addr : value;       (* address the Mloc modifier binds to; Null
                                when the modifier is Mconst *)
}

and instr = { i : instr_desc; dbg : Dinfo.di_location option }

and instr_desc =
  | Alloca of { dst : reg; ty : Ctype.t; dv : Dinfo.di_variable option }
  | Load of { dst : reg; addr : value; ty : Ctype.t; slot : slot }
  | Store of { src : value; addr : value; ty : Ctype.t; slot : slot }
  | Gep of { dst : reg; base : value; sname : string; field : string }
  | Gepidx of { dst : reg; base : value; elem : Ctype.t; idx : value }
  | Bitcast of { dst : reg; src : value; from_ty : Ctype.t; to_ty : Ctype.t }
  | Binop of { dst : reg; op : Rsti_minic.Ast.binop; fl : float_op; a : value; b : value }
  | Neg of { dst : reg; fl : float_op; src : value }
  | Lognot of { dst : reg; src : value }
  | Bitnot of { dst : reg; src : value }
  | Cast_num of { dst : reg; src : value; from_ty : Ctype.t; to_ty : Ctype.t }
  | Call of {
      dst : reg option;
      callee : callee;
      args : value list;
      arg_tys : Ctype.t list;
      ret_ty : Ctype.t;
    }
  | Pac of pac
  | Pp of pp_call  (* pointer-to-pointer runtime library (compiler-rt) *)

and callee = Direct of string | Indirect of value

(* The four functions of the paper's pointer-to-pointer library (4.7.7). *)
and pp_call =
  | Pp_add of { pp_addr : value; ce : int }                  (* register FE *)
  | Pp_sign of { dst : reg; src : value; ce : int; slot_addr : value }
  | Pp_auth of { dst : reg; src : value; slot_addr : value }
  | Pp_add_tbi of { dst : reg; src : value; ce : int }

type terminator =
  | Ret of value option
  | Br of int
  | Condbr of value * int * int
  | Unreachable

type block = { label : int; mutable instrs : instr list; mutable term : terminator }

type func = {
  name : string;
  ret : Ctype.t;
  params : Rsti_minic.Tast.var list;
  mutable blocks : block array;
  mutable nregs : int;
  loc : Rsti_minic.Loc.t;
}

type global_def = { gvar : Rsti_minic.Tast.var }

type modul = {
  m_structs : (string * (string * Ctype.t) list) list;
  m_globals : global_def list;
  m_funcs : func list;
  m_strings : string array;
  m_externs : (string * Ctype.t) list;
}

(* The synthetic function that runs global initializers before [main]. *)
let global_init_name = "__rsti_global_init"

let find_func m name = List.find_opt (fun f -> f.name = name) m.m_funcs

let struct_lookup m name =
  match List.assoc_opt name m.m_structs with
  | Some fields -> fields
  | None -> invalid_arg ("Ir.struct_lookup: unknown struct " ^ name)

let sizeof m ty = Ctype.sizeof ~lookup:(struct_lookup m) ty

let field_offset m sname fname =
  Ctype.field_offset ~lookup:(struct_lookup m) sname fname

let slot_to_string = function
  | Svar id -> Printf.sprintf "var#%d" id
  | Sfield (s, f) -> Printf.sprintf "%s.%s" s f
  | Sanon ty -> Printf.sprintf "anon<%s>" (Ctype.to_string ty)

(* ----------------------------------------------------------------- *)
(* Traversals                                                         *)
(* ----------------------------------------------------------------- *)

let iter_instrs f (fn : func) =
  Array.iter (fun b -> List.iter f b.instrs) fn.blocks

let fold_instrs f acc (fn : func) =
  Array.fold_left (fun acc b -> List.fold_left f acc b.instrs) acc fn.blocks

(* The register an instruction defines, if any. *)
let def_reg = function
  | Alloca { dst; _ }
  | Load { dst; _ }
  | Gep { dst; _ }
  | Gepidx { dst; _ }
  | Bitcast { dst; _ }
  | Binop { dst; _ }
  | Neg { dst; _ }
  | Lognot { dst; _ }
  | Bitnot { dst; _ }
  | Cast_num { dst; _ }
  | Pp (Pp_sign { dst; _ } | Pp_auth { dst; _ } | Pp_add_tbi { dst; _ }) ->
      Some dst
  | Pac p -> Some p.p_dst
  | Call { dst; _ } -> dst
  | Store _ | Pp (Pp_add _) -> None

(* ----------------------------------------------------------------- *)
(* Printing (for tests and the CLI's --emit-ir)                       *)
(* ----------------------------------------------------------------- *)

let value_to_string = function
  | Imm n -> Int64.to_string n
  | Fimm x -> Printf.sprintf "%g" x
  | Reg r -> Printf.sprintf "%%r%d" r
  | Global g -> "@" ^ g
  | Funcaddr f -> "@fn:" ^ f
  | Str i -> Printf.sprintf "@str%d" i
  | Null -> "null"

let modifier_to_string = function
  | Mconst m -> Printf.sprintf "0x%Lx" m
  | Mloc m -> Printf.sprintf "0x%Lx^&slot" m

let binop_to_string = Rsti_minic.Pretty.binop_str

let instr_to_string (ins : instr) =
  let v = value_to_string in
  let dbg =
    match ins.dbg with
    | Some d -> Printf.sprintf "  ; !dbg %s:%d" d.Dinfo.dl_func d.Dinfo.dl_line
    | None -> ""
  in
  let body =
    match ins.i with
    | Alloca { dst; ty; dv } ->
        Printf.sprintf "%%r%d = alloca %s%s" dst (Ctype.to_string ty)
          (match dv with
          | Some dv -> Printf.sprintf "  ; !DIVariable %s" dv.Dinfo.dv_name
          | None -> "")
    | Load { dst; addr; ty; slot } ->
        Printf.sprintf "%%r%d = load %s, %s  ; slot %s" dst (Ctype.to_string ty)
          (v addr) (slot_to_string slot)
    | Store { src; addr; ty; slot } ->
        Printf.sprintf "store %s %s, %s  ; slot %s" (Ctype.to_string ty) (v src)
          (v addr) (slot_to_string slot)
    | Gep { dst; base; sname; field } ->
        Printf.sprintf "%%r%d = gep %s, struct %s::%s" dst (v base) sname field
    | Gepidx { dst; base; elem; idx } ->
        Printf.sprintf "%%r%d = gep %s, [%s x %s]" dst (v base) (v idx)
          (Ctype.to_string elem)
    | Bitcast { dst; src; from_ty; to_ty } ->
        Printf.sprintf "%%r%d = bitcast %s : %s to %s" dst (v src)
          (Ctype.to_string from_ty) (Ctype.to_string to_ty)
    | Binop { dst; op; fl; a; b } ->
        Printf.sprintf "%%r%d = %s%s %s, %s" dst
          (if fl = Fop then "f" else "")
          (binop_to_string op) (v a) (v b)
    | Neg { dst; fl; src } ->
        Printf.sprintf "%%r%d = %sneg %s" dst (if fl = Fop then "f" else "") (v src)
    | Lognot { dst; src } -> Printf.sprintf "%%r%d = lognot %s" dst (v src)
    | Bitnot { dst; src } -> Printf.sprintf "%%r%d = bitnot %s" dst (v src)
    | Cast_num { dst; src; from_ty; to_ty } ->
        Printf.sprintf "%%r%d = numcast %s : %s to %s" dst (v src)
          (Ctype.to_string from_ty) (Ctype.to_string to_ty)
    | Call { dst; callee; args; _ } ->
        let callee_s =
          match callee with Direct f -> "@" ^ f | Indirect c -> v c
        in
        Printf.sprintf "%scall %s(%s)"
          (match dst with Some d -> Printf.sprintf "%%r%d = " d | None -> "")
          callee_s
          (String.concat ", " (List.map v args))
    | Pac p ->
        let kind =
          match p.p_kind with
          | Ksign -> "pac"
          | Kauth -> "aut"
          | Kresign -> "resign"
          | Kstrip -> "xpac"
        in
        Printf.sprintf "%%r%d = %s.%s %s, %s" p.p_dst kind
          (Rsti_pa.Key.which_to_string p.p_key) (v p.p_src)
          (modifier_to_string p.p_mod)
    | Pp (Pp_add { pp_addr; ce }) ->
        Printf.sprintf "pp_add %s, CE=%d" (v pp_addr) ce
    | Pp (Pp_sign { dst; src; ce; _ }) ->
        Printf.sprintf "%%r%d = pp_sign %s, CE=%d" dst (v src) ce
    | Pp (Pp_auth { dst; src; _ }) -> Printf.sprintf "%%r%d = pp_auth %s" dst (v src)
    | Pp (Pp_add_tbi { dst; src; ce }) ->
        Printf.sprintf "%%r%d = pp_add_tbi %s, CE=%d" dst (v src) ce
  in
  body ^ dbg

let term_to_string = function
  | Ret None -> "ret void"
  | Ret (Some x) -> "ret " ^ value_to_string x
  | Br l -> Printf.sprintf "br L%d" l
  | Condbr (c, a, b) -> Printf.sprintf "br %s, L%d, L%d" (value_to_string c) a b
  | Unreachable -> "unreachable"

let func_to_string (fn : func) =
  let buf = Buffer.create 512 in
  Printf.bprintf buf "define %s @%s(%s) {\n" (Ctype.to_string fn.ret) fn.name
    (String.concat ", "
       (List.map
          (fun (p : Rsti_minic.Tast.var) ->
            Ctype.to_string p.v_ty ^ " %" ^ p.v_name)
          fn.params));
  Array.iter
    (fun b ->
      Printf.bprintf buf "L%d:\n" b.label;
      List.iter (fun ins -> Printf.bprintf buf "  %s\n" (instr_to_string ins)) b.instrs;
      Printf.bprintf buf "  %s\n" (term_to_string b.term))
    fn.blocks;
  Buffer.add_string buf "}\n";
  Buffer.contents buf

let modul_to_string (m : modul) =
  let buf = Buffer.create 4096 in
  List.iter
    (fun (name, fields) ->
      Printf.bprintf buf "%%struct.%s = { %s }\n" name
        (String.concat ", " (List.map (fun (f, ty) -> Ctype.to_string ty ^ " " ^ f) fields)))
    m.m_structs;
  List.iter
    (fun g ->
      Printf.bprintf buf "@%s = global %s\n" g.gvar.Rsti_minic.Tast.v_name
        (Ctype.to_string g.gvar.Rsti_minic.Tast.v_ty))
    m.m_globals;
  Array.iteri (fun i s -> Printf.bprintf buf "@str%d = %S\n" i s) m.m_strings;
  Buffer.add_char buf '\n';
  List.iter (fun f -> Buffer.add_string buf (func_to_string f ^ "\n")) m.m_funcs;
  Buffer.contents buf
