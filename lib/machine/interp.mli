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
    signed the value. [notes] holds what the attack hooks wrote. *)

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
  mutable pac_charges : int;
      (** times the [pac] price was charged (a resign charges twice;
          the pp mechanism's sign/auth price at [pp], not here) *)
}

(** One profiled (function, source line) pair of the exact hot-site
    profiler ([create ~profile:true]). Attribution is exact, not
    sampled: every cycle the machine charges is added to the site of the
    last instruction dispatched (terminator and call-overhead charges
    land on that site too; pre-[entry] setup lands on the ["_start"]
    pseudo-site), so an outcome's sites partition its cycle total —
    [sum s_cycles = cycles], [sum s_instrs = counts.instrs], and
    likewise for [s_pac_charges]/[s_strips]/[s_pp_calls] against the
    global counters. *)
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
    never signed at all — a raw overwrite. Detection latency runs from
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
}

val detected : outcome -> bool
(** True when execution ended in a trap that followed a PAC authentication
    failure — i.e. RSTI detected and stopped an attack. *)

val reprice :
  from:Cost.t -> to_:Cost.t -> pac_spill_charged:bool -> outcome -> outcome
(** Re-price a finished run under a different cost record without
    re-simulating: costs never influence control flow, so the trace —
    and with it {!counts}, status, profiles, output — is identical, and
    only the cycle total moves. Valid only when [from] and [to_] differ
    in the instrumentation prices ([pac], [strip], [pp], [pac_spill]);
    the base ISA prices are not reconstructible from {!counts} and a
    difference there raises [Invalid_argument]. [pac_spill_charged] is
    whether the run's backend pays the spill price alongside each [pac]
    charge ([`Pac] does, [`Shadow_mac] never spills). A profiled
    outcome's {!site}s carry the same per-price counters, so their
    cycles are re-priced exactly too and keep partitioning the total. *)

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
    for the functions it enters, and a name or type the IR gets wrong
    raises only when the instruction that uses it executes.
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
    [profile] (default false) turns on the exact hot-site profiler;
    when off, profiling costs one boolean test per charge and allocates
    nothing.
    [flight] (default 0 = off) is the PAC flight recorder's ring
    capacity: every sign/auth/resign/strip/pp op is captured as a
    {!pac_op}, the last [flight] of them are kept, and a failing auth
    emits an {!incident} carrying that window plus detection latency.
    Same discipline as the profiler: when off, each PAC op pays one
    boolean test and nothing allocates. Flight timestamps are cycle
    numbers under the run's own costs; {!reprice} does not rewrite
    them (flight runs carry attacks, which the outcome cache refuses
    anyway). *)

val pac_ctx : t -> Rsti_pa.Pac.ctx
(** The machine's PA context (tests use it to forge/inspect PACs). *)

val global_addr : t -> string -> int64
val func_addr : t -> string -> int64

val run :
  ?attacks:attack list ->
  ?step_limit:int ->
  ?entry:string ->
  t ->
  outcome
(** Execute [__rsti_global_init] then [entry] (default ["main"]).
    [step_limit] bounds interpreted instructions (default 200 million).
    A machine can be run only once; create a fresh one per run. *)
