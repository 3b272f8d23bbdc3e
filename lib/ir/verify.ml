module Ctype = Rsti_minic.Ctype

type error = { fn : string; msg : string }

let verify_function (m : Ir.modul) (fn : Ir.func) : error list =
  let errs = ref [] in
  let err fmt = Printf.ksprintf (fun msg -> errs := { fn = fn.name; msg } :: !errs) fmt in
  let nblocks = Array.length fn.blocks in
  let nparams = List.length fn.params in
  let defined = Hashtbl.create 64 in
  for i = 0 to nparams - 1 do
    Hashtbl.replace defined i ()
  done;
  let define r =
    if r < 0 || r >= fn.nregs then err "register %%r%d out of range (nregs=%d)" r fn.nregs
    else if Hashtbl.mem defined r then err "register %%r%d defined twice" r
    else Hashtbl.replace defined r ()
  in
  (* First pass: collect definitions (registers are assigned once and the
     lowering guarantees defs precede uses in execution order, so a
     global definition set is the right granularity). *)
  Ir.iter_instrs (fun ins -> Option.iter define (Ir.def_reg ins.Ir.i)) fn;
  let use (v : Ir.value) =
    match v with
    | Ir.Reg r ->
        if not (Hashtbl.mem defined r) then err "register %%r%d used but never defined" r
    | Ir.Global g ->
        if
          (not (List.exists (fun (d : Ir.global_def) -> d.gvar.v_name = g) m.m_globals))
          && not (List.mem_assoc g m.m_externs)
        then err "unknown global @%s" g
    | Ir.Funcaddr f ->
        if Ir.find_func m f = None && not (List.mem_assoc f m.m_externs) then
          err "unknown function reference @%s" f
    | Ir.Str i ->
        if i < 0 || i >= Array.length m.m_strings then err "string index %d out of range" i
    | Ir.Imm _ | Ir.Fimm _ | Ir.Null -> ()
  in
  let loadable ty =
    match Ctype.strip_const ty with
    | Ctype.Void -> false
    | Ctype.Struct _ | Ctype.Array _ | Ctype.Func _ -> false
    | _ -> true
  in
  let check_label l = if l < 0 || l >= nblocks then err "branch to invalid label L%d" l in
  (* Debug-metadata completeness: Sti.Analysis derives every slot's scope
     from the !dbg attachment on its loads and stores — a memory access
     without one (or naming a function that does not exist) would be
     silently mis-scoped, so it is an IR error, not a style issue. *)
  let check_dbg what (ins : Ir.instr) =
    match ins.Ir.dbg with
    | None -> err "%s without !dbg location" what
    | Some d ->
        if Ir.find_func m d.Dinfo.dl_func = None then
          err "%s !dbg names unknown function %s" what d.Dinfo.dl_func
  in
  Ir.iter_instrs
    (fun ins ->
      match ins.Ir.i with
      | Ir.Alloca { ty; _ } -> (
          match ty with
          | Ctype.Void -> err "alloca of void"
          | _ -> ( try ignore (Ir.sizeof m ty) with _ -> err "alloca of unsized type"))
      | Ir.Load { addr; ty; _ } ->
          use addr;
          check_dbg "load" ins;
          if not (loadable ty) then err "load of non-loadable type %s" (Ctype.to_string ty)
      | Ir.Store { src; addr; ty; _ } ->
          use src;
          use addr;
          check_dbg "store" ins;
          if not (loadable ty) then err "store of non-loadable type %s" (Ctype.to_string ty)
      | Ir.Gep { base; sname; field; _ } -> (
          use base;
          match List.assoc_opt sname m.m_structs with
          | None -> err "gep into unknown struct %s" sname
          | Some fields ->
              if not (List.mem_assoc field fields) then
                err "gep to unknown field %s.%s" sname field)
      | Ir.Gepidx { base; idx; elem; _ } -> (
          use base;
          use idx;
          try ignore (Ir.sizeof m elem) with _ -> err "gep over unsized element")
      | Ir.Bitcast { src; _ } -> use src
      | Ir.Binop { a; b; _ } -> use a; use b
      | Ir.Neg { src; _ } | Ir.Lognot { src; _ } | Ir.Bitnot { src; _ }
      | Ir.Cast_num { src; _ } ->
          use src
      | Ir.Call { callee; args; arg_tys; _ } ->
          (match callee with
          | Ir.Direct f -> (
              let nargs = List.length args in
              match Ir.find_func m f with
              | Some callee_fn ->
                  let nparams = List.length callee_fn.Ir.params in
                  if nargs <> nparams then
                    err "call to @%s passes %d args, signature declares %d" f
                      nargs nparams
              | None -> (
                  match List.assoc_opt f m.m_externs with
                  | Some ty -> (
                      match Ctype.strip_const ty with
                      | Ctype.Func s ->
                          let fixed = List.length s.Ctype.params in
                          if s.Ctype.variadic then begin
                            if nargs < fixed then
                              err
                                "call to variadic extern @%s passes %d args, \
                                 needs at least %d"
                                f nargs fixed
                          end
                          else if nargs <> fixed then
                            err "call to extern @%s passes %d args, declared %d"
                              f nargs fixed
                      | _ -> ())
                  | None ->
                      (* built-ins (printf, malloc, ...) resolve at runtime
                         even without a declaration; only flag arity against
                         signatures we actually have *)
                      ()))
          | Ir.Indirect c -> use c);
          List.iter use args;
          if List.length arg_tys <> List.length args then
            err "call arg/arg_ty arity mismatch (%d vs %d)" (List.length args)
              (List.length arg_tys)
      | Ir.Pac p -> (
          use p.p_src;
          use p.p_slot_addr;
          match (p.p_mod, p.p_slot_addr) with
          | Ir.Mloc _, Ir.Null -> err "Mloc modifier without a slot address"
          | _ -> ())
      | Ir.Pp (Ir.Pp_add { pp_addr; ce }) ->
          use pp_addr;
          if ce < 1 || ce > 255 then err "CE %d out of 1..255" ce
      | Ir.Pp (Ir.Pp_sign { src; ce; slot_addr; _ }) ->
          use src;
          use slot_addr;
          if ce < 1 || ce > 255 then err "CE %d out of 1..255" ce
      | Ir.Pp (Ir.Pp_auth { src; slot_addr; _ }) -> use src; use slot_addr
      | Ir.Pp (Ir.Pp_add_tbi { src; ce; _ }) ->
          use src;
          if ce < 1 || ce > 255 then err "CE %d out of 1..255" ce)
    fn;
  Array.iter
    (fun (b : Ir.block) ->
      match b.Ir.term with
      | Ir.Ret None ->
          if Ctype.strip_const fn.ret <> Ctype.Void then
            err "void return from non-void function"
      | Ir.Ret (Some v) ->
          use v;
          if Ctype.strip_const fn.ret = Ctype.Void then
            err "value returned from void function"
      | Ir.Br l -> check_label l
      | Ir.Condbr (c, a, b') ->
          use c;
          check_label a;
          check_label b'
      | Ir.Unreachable -> ())
    fn.blocks;
  List.rev !errs

let verify (m : Ir.modul) : error list =
  List.concat_map (verify_function m) m.m_funcs
