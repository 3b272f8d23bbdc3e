(** Debug metadata attached to the IR, mirroring the LLVM constructs the
    paper's analysis consumes (section 4.4): [di_variable] plays the role
    of [!DILocalVariable]/[!DIGlobalVariable] (its {!Rsti_minic.Ctype.t}
    is the DIDerivedType chain — [Const] is [DW_TAG_const_type], [Ptr] is
    [DW_TAG_pointer_type], [Struct] the [DICompositeType] reference), and
    [di_location] mirrors [!DILocation] on every load/store. *)

type di_scope =
  | Sc_function of string  (** DISubprogram *)
  | Sc_global              (** compile-unit scope *)

type di_variable = {
  dv_id : int;             (** the {!Rsti_minic.Tast.var} id described *)
  dv_name : string;
  dv_type : Rsti_minic.Ctype.t;
  dv_scope : di_scope;
  dv_line : int;
  dv_is_param : bool;
}

type di_location = { dl_line : int; dl_func : string }

val variable_of_var : Rsti_minic.Tast.var -> di_variable
(** The metadata the lowering attaches to a variable's alloca / global. *)
