(** The RSTI instrumentation pass (paper sections 4.6–4.7): rewrites a
    module so that

    - every store of a pointer-typed value is preceded by a [pac*] sign
      with the slot's RSTI-type modifier (on-store pointer signing),
    - every load of a pointer-typed value is followed by an [aut*]
      authentication with the same modifier (on-load authentication),
    - under STWC/STL, every pointer cast executes an authenticate+re-sign
      pair for the type transition,
    - under STL, modifiers additionally fold in the slot address ([&p]) at
      runtime, and parameter slots are instrumented too (the location
      changes at every call, section 4.6),
    - pointer arguments to uninstrumented external (libc) functions are
      [xpac]-stripped (section 4.6),
    - a pointer-to-pointer cast to a universal type passed as a function
      argument goes through the compiler-rt pp library: [pp_add] +
      [pp_sign] + [pp_add_tbi] at the call site, [pp_auth] at the
      callee's uses of that parameter (section 4.7.7).

    Parameter slots are not instrumented under STWC/STC — at -O2 those
    values live in registers (mem2reg), which the paper's threat model
    treats as uncorruptible; the PARTS baseline instruments them anyway,
    modelling its lack of backend optimisation. *)

type static_counts = {
  signs : int;
  auths : int;
  resigns : int;    (** cast-site auth+re-sign pairs *)
  strips : int;
  pp_ops : int;
  elided : int;     (** sign/auth sites skipped by the elision proof *)
}

type result = {
  modul : Rsti_ir.Ir.modul;                 (** rewritten copy *)
  pp_table : (int * int64) list;            (** CE → FE modifier, for the
                                                machine's read-only store *)
  counts : static_counts;                   (** inserted instrumentation *)
  per_func : (string * static_counts) list;
}

val instrument :
  ?elide:(Rsti_ir.Ir.slot -> bool) ->
  Rsti_sti.Rsti_type.mechanism -> Rsti_sti.Analysis.t -> Rsti_ir.Ir.modul -> result
(** Instrument under a mechanism. [Nop] returns the module unchanged. The
    input module must be uninstrumented.

    [elide] is the static checker's safety proof
    ({!Rsti_staticcheck.Elide.elide}): slots it accepts keep plain
    loads/stores — sign and auth are dropped together, so in-memory values
    stay raw and agree with the uninstrumented discipline. Sites skipped
    this way are tallied in [elided]. PARTS never elides (it models a
    compiler without the whole-program proof); the default elides
    nothing. *)
