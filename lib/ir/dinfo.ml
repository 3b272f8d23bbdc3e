(* Debug metadata attached to IR, mirroring the LLVM constructs the paper's
   analysis consumes (section 4.4):

   - [di_variable] mirrors !DILocalVariable / !DIGlobalVariable: name,
     scope and a type chain. The [Ctype.t] it carries plays the role of
     the DIDerivedType chain — [Ctype.Const] is DW_TAG_const_type (the
     permission), [Ctype.Ptr] is DW_TAG_pointer_type, [Ctype.Struct] is
     the DICompositeType reference.
   - [di_location] mirrors !DILocation: the line and the enclosing
     function, attached to every load/store so "the proper scope can
     always be obtained". *)

type di_scope =
  | Sc_function of string   (* DISubprogram *)
  | Sc_global               (* compile-unit scope *)

type di_variable = {
  dv_id : int;              (* the Tast variable id this describes *)
  dv_name : string;
  dv_type : Rsti_minic.Ctype.t;
  dv_scope : di_scope;
  dv_line : int;
  dv_is_param : bool;
}

type di_location = { dl_line : int; dl_func : string }

let variable_of_var (v : Rsti_minic.Tast.var) =
  {
    dv_id = v.v_id;
    dv_name = v.v_name;
    dv_type = v.v_ty;
    dv_scope =
      (match v.v_func with Some f -> Sc_function f | None -> Sc_global);
    dv_line = v.v_loc.line;
    dv_is_param = (v.v_kind = Rsti_minic.Tast.Kparam);
  }
