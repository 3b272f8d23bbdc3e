(** The PAC-typestate translation validator: re-checks an
    {e instrumented} module against the signed-at-rest / raw-in-flight
    discipline, without trusting the rewriter that produced it.

    Registers are assigned once, so one def table per function gives
    every register its provenance typestate — fresh load result, sign
    output, strip/re-sign output, pp-library output — from its defining
    instruction; a register defined twice is itself an issue. One walk
    over the blocks then enforces, per instruction, that sign outputs
    only reach their guarded store, auths only consume fresh loads,
    casts pair with re-signs (STWC/STL), extern calls take stripped
    pointers and STL boundaries re-sign; and, per slot across the
    module, that instrumentation is all-or-nothing: a slot authenticated
    anywhere has every pointer store signed and every load
    authenticated under the one modifier {!Rsti_sti.Analysis} derives
    for it. Whole-slot elision passes; a dropped sign with the auths
    left behind does not. *)

type issue = { i_fn : string; i_what : string }

type report = {
  mech : Rsti_sti.Rsti_type.mechanism;
  issues : issue list;
  funcs : int;
  checked_slots : int;  (** pointer-bearing slots seen *)
  signed_slots : int;   (** slots carrying sign/auth instrumentation *)
}

val ok : report -> bool

val check :
  Rsti_sti.Analysis.t ->
  Rsti_sti.Rsti_type.mechanism ->
  Rsti_ir.Ir.modul ->
  report
(** [check anal mech m] validates instrumented module [m] against the
    analysis the instrumentation was derived from. [mech = Nop] asserts
    the module carries no PAC/pp ops at all. *)

val report_to_string : report -> string

val break_one_sign : Rsti_ir.Ir.modul -> Rsti_ir.Ir.modul option
(** Fault injection for tests: drop one [Ksign] guarding a slot that is
    authenticated elsewhere, storing the raw value instead — the output
    must then fail {!check}. [None] if the module has no such sign. *)
