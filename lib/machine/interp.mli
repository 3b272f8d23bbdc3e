(** The virtual machine: executes (possibly RSTI-instrumented) IR over the
    simulated address space with real PA semantics, counts cycles under
    {!Cost}, and exposes the attacker API the security evaluation uses.

    A failing [aut*] traps at once under FPAC, the default, as on the
    Apple M1 the paper evaluates on. Without FPAC (plain ARMv8.3, paper
    section 2.4) it leaves a corrupted pointer behind and the next
    dereference or indirect call faults; that trap carries
    [after_auth_fail], so {!detected} still attributes the crash.

    An {!outcome} records each fact of a run once. The counters,
    [call_profile], [extern_profile] and [output] say what ran. The
    flight recorder's [incidents] say which PAC operation failed and who
    signed the value. [notes] holds what the attack hooks wrote.

    A machine charges each basic block's static cost at once, not each
    instruction's, unless it profiles or records; either way the
    outcome is the same. The cycle total and {!counts} are exact at
    every call (a callee, and an attack hook it fires, starts from the
    counts of the instructions that ran before it), at every trap and
    at exit: they count the instruction that trapped or called [exit]
    and nothing after it. *)

type trap =
  | Mem_fault of { fault : string; func : string; after_auth_fail : bool }
  | Bad_indirect_call of { target : int64; func : string; after_auth_fail : bool }
  | Div_by_zero of string
  | Stack_overflow
  | Step_limit_exceeded
  | Unknown_function of string
  | Pac_auth_failure of { func : string; modifier : int64; ptr : int64 }
      (** a failing [aut*] under FPAC (the default machine config) *)
  | Cfi_violation of { func : string; target : string }
      (** signature-based CFI baseline rejected an indirect call *)

val trap_to_string : trap -> string

type status = Exited of int64 | Trapped of trap

type counts = {
  mutable instrs : int;
  mutable loads : int;
  mutable stores : int;
  mutable pac_signs : int;
  mutable pac_auths : int;      (** auths + the auth halves of resigns *)
  mutable pac_strips : int;
  mutable pp_calls : int;
}

(** One profiled (function, source line) pair of the exact hot-site
    profiler ([create ~profile:true]). Attribution is exact, not
    sampled: every cycle the machine charges is added to the site of the
    last instruction dispatched (terminator and call-overhead charges
    land on that site too; pre-[entry] setup lands on the ["_start"]
    pseudo-site), so an outcome's sites partition its cycle total —
    [sum s_cycles = cycles], [sum s_instrs = counts.instrs], and
    likewise [s_strips] and [s_pp_calls] against [pac_strips] and
    [pp_calls]. [s_pac_charges] counts the [pac] prices charged at the
    site (a resign's two; a pp op's sign or auth is priced at [pp]
    instead), so in a run without pp ops the sites' [s_pac_charges] sum
    to [pac_signs + pac_auths]. *)
type site = {
  s_func : string;
  s_line : int;  (** 0 when the instruction carries no !dbg location *)
  mutable s_cycles : int;
  mutable s_instrs : int;
  mutable s_pac_charges : int;
  mutable s_strips : int;
  mutable s_pp_calls : int;
}

(** One PAC-unit operation captured by the flight recorder
    ([create ~flight:n]). *)
type op_kind =
  | Op_sign
  | Op_auth
  | Op_resign
  | Op_strip
  | Op_pp_sign
  | Op_pp_auth

val op_kind_to_string : op_kind -> string

type pac_op = {
  op_kind : op_kind;
  op_func : string;
  op_line : int;  (** 0 when the instruction carries no !dbg location *)
  op_key : Rsti_pa.Key.which;
  op_static_mod : int64;
      (** the modifier {e constant} the instruction carries ([Mconst c]
          and [Mloc c] both record [c], before any slot-address XOR) —
          exactly the class identity of the static [Equiv] partition, so
          flight-recorder ops correlate with their static class *)
  op_modifier : int64;  (** the runtime modifier fed to the PAC unit *)
  op_src : int64;
  op_result : int64;
  op_ok : bool;  (** [false] only for a failing auth/resign *)
  op_cycle : int;
  op_instr : int;
}

(** The structured security-event record emitted at a failing auth.
    The {e expected} signer is the failing site's own
    ([inc_static_mod], [inc_key]) pair — the signed-at-rest discipline
    says whoever produced this slot's value must have signed with
    exactly that pair. The {e observed} signer [inc_signer] is the sign
    operation that actually produced the failing pointer value, tracked
    for the whole run (not just the window); [None] means the value was
    never signed at all — a raw overwrite — or was first signed after
    the recorder stopped taking new values: it remembers the latest
    signer of at most {!signers_cap} distinct signed values per run, and
    a value it already remembers keeps updating. Detection latency runs from
    the first intruder store (tagged automatically by the attacker API)
    to the failing auth; [None] when no corruption was tagged. *)
type incident = {
  inc_func : string;
  inc_line : int;
  inc_key : Rsti_pa.Key.which;
  inc_static_mod : int64;
  inc_modifier : int64;  (** runtime modifier of the failing auth *)
  inc_ptr : int64;       (** the pointer value that failed to authenticate *)
  inc_signer : pac_op option;
  inc_window : pac_op list;
      (** the last-N flight-recorder ops, oldest first; ends with the
          failing op itself *)
  inc_cycle : int;
  inc_instr : int;
  inc_corrupt : (int * int) option;
      (** (cycle, instr) of the first intruder store *)
  inc_latency_cycles : int option;
  inc_latency_instrs : int option;
}

val signers_cap : int
(** 16,384: the distinct signed values whose signer a flight-recorded
    run remembers, so the recorder's memory is bounded whatever the run
    signs. *)

type profile
(** How often a run entered each block segment (a block is cut after
    each call) of each function: what {!price} sums. An outcome reads it
    in place from the machine that ran, so reporting it copies nothing. *)

type outcome = {
  status : status;
  cycles : int;
  counts : counts;
  output : string;           (** everything the program printed *)
  call_profile : (string * int) list;
      (** defined-function call counts, most-called first and equal
          counts by name ([String.compare]); a function that never ran
          is absent *)
  extern_profile : (string * int) list;
      (** simulated-libc call counts, in the same order as
          [call_profile]; a function that never ran is absent *)
  sites : site list;
      (** hot-site profile, cycles descending (ties by site); [] unless
          the machine was created with [~profile:true] *)
  incidents : incident list;
      (** chronological; [] unless the machine was created with a
          [flight] capacity (under FPAC a run holds at most one, since
          the first failing auth traps) *)
  notes : string list;
      (** the strings attack hooks passed to [intruder.note],
          chronological *)
  visits : profile;  (** the run's segment visits, which {!price} sums *)
}

val detected : outcome -> bool
(** True when execution ended in a trap that followed a PAC authentication
    failure — i.e. RSTI detected and stopped an attack. *)

val profile_report : ?top:int -> outcome -> string
(** A perf-report-style table of the hottest [top] (default 20) sites —
    cycles, share of total, instructions, pac/strip/pp charges — with
    one trailing row aggregating the rest. Empty profile renders just
    the header. *)

type t
(** A loaded machine instance (module + memory image + PA keys). *)

(** The corruption primitive handed to attack scenarios: what a real
    attacker gets from a memory-corruption vulnerability (arbitrary
    read/write) plus the address-space knowledge (infoleak) the paper's
    threat model grants. It cannot forge PACs: signing needs the kernel's
    keys. *)
type intruder = {
  read_word : int64 -> int64;
  write_word : int64 -> int64 -> unit;
  read_string : int64 -> string;
  write_string : int64 -> string -> unit;
  global_addr : string -> int64;
  func_addr : string -> int64;         (** includes simulated-libc symbols *)
  heap_allocs : unit -> (int64 * int) list;  (** (address, size), newest first *)
  note : string -> unit;  (** append to the outcome's [notes] *)
}

type trigger =
  | On_call of string * int    (** nth (1-based) entry to a defined function *)
  | On_extern of string * int  (** nth call of a libc function *)

type attack = { trigger : trigger; action : intruder -> unit }

val create :
  ?costs:Cost.t ->
  ?seed:int64 ->
  ?pp_table:(int * int64) list ->
  ?fpac:bool ->
  ?cfi:bool ->
  ?backend:[ `Pac | `Shadow_mac ] ->
  ?profile:bool ->
  ?flight:int ->
  Rsti_ir.Ir.modul ->
  t
(** Load a module: lay out globals/strings/code, generate PA keys from
    [seed], install the read-only pointer-to-pointer metadata table.
    Code is resolved lazily: a function's instructions are turned into
    the form the machine executes on its first call, so a run pays only
    for the functions it enters, and a name, type or register the IR
    gets wrong raises only when the instruction that uses it executes.
    Each call runs on a register file of unboxed 64-bit registers, its
    constants held in registers above the function's own.
    [fpac] (default true) selects ARMv8.6 FPAC semantics — a failing
    [aut*] traps synchronously, as on the Apple M1 the paper evaluates
    on; with [fpac:false] the failure only corrupts the pointer and the
    crash happens at the subsequent dereference (plain ARMv8.3).
    [cfi] (default false) enables the signature-based CFI baseline the
    paper's introduction contrasts RSTI with: indirect calls must match
    the target's prototype; data pointers are not checked at all.
    [backend] selects the enforcement substrate (section 7): [`Pac]
    (default) keeps the code in pointer bits; [`Shadow_mac] is the
    CCFI-style alternative — a full-width MAC of (pointer, modifier)
    held in a runtime-protected shadow table keyed by the slot address,
    with pointers left raw. Same STI policy, different mechanism.
    [profile] (default false) turns on the exact hot-site profiler.
    A machine with neither the profiler nor the flight recorder charges
    each basic block once; either one makes it step and charge each
    instruction as it runs, so every charge and every recorded
    operation has its site and line, and the outcome does not change.
    [flight] (default 0 = off) is the PAC flight recorder's ring
    capacity: every sign/auth/resign/strip/pp op is captured as a
    {!pac_op}, the last [flight] of them are kept, and a failing auth
    emits an {!incident} carrying that window plus detection latency.
    When off, each PAC op pays one boolean test and nothing allocates.
    Flight timestamps are cycle numbers under the run's own costs. *)

val global_addr : t -> string -> int64
val func_addr : t -> string -> int64

val run :
  ?attacks:attack list ->
  ?step_limit:int ->
  ?entry:string ->
  t ->
  outcome
(** Execute [__rsti_global_init] then [entry] (default ["main"]).
    [step_limit] bounds interpreted instructions, [counts.instrs]
    (default 200 million): the instruction past it traps, with
    [counts.instrs = step_limit + 1] and nothing charged for it.
    A machine can be run only once; create a fresh one per run. *)

val price :
  ?costs:Cost.t -> ?backend:[ `Pac | `Shadow_mac ] -> Rsti_ir.Ir.modul -> outcome -> outcome
(** [price modul base] is the outcome [modul] would have on a machine
    with neither the profiler nor the flight recorder, under [costs] and
    [backend] as in {!create}, if it enters every block segment as often
    as [base]'s run did, as an RSTI build of [base]'s module does. It
    resolves [modul] as a machine would; its cycles are, per segment,
    [base]'s visits times [modul]'s static cycles, plus [call] per
    defined-function call and [extern_call] per libc call of [base]'s
    profiles, and every count is summed the same way (the PA counts from
    each segment's PA and pp instructions). Status, output, both call
    profiles, notes and visits are [base]'s; [sites] and [incidents] are
    empty. Nothing executes.
    @raise Invalid_argument when [base] did not exit, or [modul]'s
    functions, an entered function's blocks or a block's segments
    (calls) differ from [base]'s. *)
