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

    A machine charges each block segment's static cost at once, not each
    instruction's, whether or not it records. The cycle total and
    {!counts} are exact at every call (a callee, and an attack hook it
    fires, starts from the counts of the instructions that ran before
    it), at every trap and at exit: they count the instruction that
    trapped or called [exit] and nothing after it. Every flight-recorder
    stamp is as exact. *)

type trap =
  | Mem_fault of { fault : string; func : string; after_auth_fail : bool }
  | Bad_indirect_call of { target : int64; func : string; after_auth_fail : bool }
  | Div_by_zero of string
  | Stack_overflow
  | Step_limit_exceeded
  | Unknown_function of string
      (** ["main"] for a module without one, or ["f:unreachable"] when a
          block of [f] runs to an [unreachable] terminator *)
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

(** One (function, source line) pair of an outcome's exact hot-site
    profile ({!sites}). [s_pac_charges] counts the [pac] prices charged
    at the site (a resign's two; a pp op's sign or auth is priced at
    [pp] instead). *)
type site = {
  s_func : string;
  s_line : int;
      (** 0 when the instruction carries no !dbg location, and for a
          function's call charges *)
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
    each call) of each function, and where a trap cut a segment short:
    what {!price} and {!sites} sum. An outcome reads it in place from the
    machine that ran, so reporting it copies nothing. *)

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
  incidents : incident list;
      (** chronological; [] unless the machine was created with a
          [flight] capacity (under FPAC a run holds at most one, since
          the first failing auth traps) *)
  notes : string list;
      (** the strings attack hooks passed to [intruder.note],
          chronological *)
  visits : profile;
      (** the run's segment visits, which {!price} and {!sites} sum *)
}

val detected : outcome -> bool
(** True when execution ended in a trap that followed a PAC authentication
    failure — i.e. RSTI detected and stopped an attack. *)

val sites : outcome -> site list
(** The outcome's exact hot-site profile, cycles descending (ties by
    site), added up from its segment visits and call profiles, so every
    outcome has one: executed, trapped, served from a cache or priced.
    The attribution rules:
    - an instruction's static charge, its step and its PA charges land
      on its own (function, line);
    - a block's terminator lands on the site of the block's last
      instruction, or on (function, 0) when the block has none;
    - each call's [call] or [extern_call] charge lands on the callee's
      (callee, 0) pseudo-site, so the entry calls land on
      [("__rsti_global_init", 0)] and [("main", 0)];
    - the one segment a trap or the step limit cut short counts only
      what ran; at the step limit, the instruction that was stepped but
      not charged keeps its step.
    So the sites partition the outcome: [sum s_cycles = cycles],
    [sum s_instrs = counts.instrs], and likewise [s_strips] and
    [s_pp_calls] against [pac_strips] and [pp_calls]; in a run without
    pp ops the sites' [s_pac_charges] sum to [pac_signs + pac_auths]. *)

val profile_report : ?top:int -> outcome -> string
(** A perf-report-style table of the hottest [top] (default 20) of
    {!sites} — cycles, share of total, instructions, pac/strip/pp
    charges — with one trailing row aggregating the rest. An empty
    profile renders just the header. *)

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
  ?pp_table:(int * int64) list ->
  ?fpac:bool ->
  ?cfi:bool ->
  ?backend:[ `Pac | `Shadow_mac ] ->
  ?flight:int ->
  Rsti_ir.Ir.modul ->
  t
(** Load a module: lay out globals/strings/code, generate PA keys from
    one fixed seed (which also seeds [rand]), install the read-only
    pointer-to-pointer metadata table.
    Code is resolved lazily: a function's instructions are turned into
    the form the machine executes on its first call, so a run pays only
    for the functions it enters. Malformed IR raises when its function
    is first called, before any of the function's instructions runs: an
    unknown global, function, direct callee, string, struct or field, a
    type without a size, or a register or block the function does not
    have raises what resolving it raises ([Invalid_argument], or
    [Not_found] for a field).
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
    [flight] (default 0 = off) is the PAC flight recorder's ring
    capacity: every sign/auth/resign/strip/pp op is captured as a
    {!pac_op}, the last [flight] of them are kept, and a failing auth
    emits an {!incident} carrying that window plus detection latency.
    Each op knows its line and the cycles and steps that follow it in
    its segment, so the recorder stamps it exactly on the machine's one
    segment loop; recording changes nothing else of the run. When off,
    each PAC op pays one boolean test and nothing allocates. Flight
    timestamps are cycle numbers under the run's own costs. *)

val global_addr : t -> string -> int64
val func_addr : t -> string -> int64

val run : ?attacks:attack list -> ?step_limit:int -> t -> outcome
(** Execute [__rsti_global_init] then [main]; a module without [main]
    traps with [Unknown_function "main"]. [step_limit] bounds
    interpreted instructions, [counts.instrs] (default 200 million; a
    negative one counts as 0): the instruction past it traps, with
    [counts.instrs = step_limit + 1] and nothing charged for it. A
    machine can be run only once; create a fresh one per run. *)

val price :
  ?costs:Cost.t -> ?backend:[ `Pac | `Shadow_mac ] -> Rsti_ir.Ir.modul -> outcome -> outcome
(** [price modul base] is the outcome [modul] would have on a machine
    without the flight recorder, under [costs] and [backend] as in
    {!create}, if it enters every block segment as often as [base]'s run
    did, as an RSTI build of [base]'s module does. It
    resolves [modul] as a machine would; its cycles are, per segment,
    [base]'s visits times [modul]'s static cycles, plus [call] per
    defined-function call and [extern_call] per libc call of [base]'s
    profiles, and every count is summed the same way (the PA counts from
    each segment's PA and pp instructions). Status, output, both call
    profiles and notes are [base]'s, and [incidents] is empty. Its
    visits are [modul]'s own resolved segments carrying [base]'s visit
    counts, so its {!sites} are the profile of [modul]'s build. Nothing
    executes.
    @raise Invalid_argument when [base] did not exit, or [modul]'s
    functions, an entered function's blocks or a block's segments
    (calls) differ from [base]'s. *)

(** {1 The load/store unit}

    Byte-addressable sparse paged memory with little-endian word access
    and read-only regions (the pointer-to-pointer CE/FE metadata store is
    read-only, paper section 4.7.7). It lives in this compilation unit so
    that the machine's loads and stores inline it.

    Addresses must be canonical (fit the 48-bit VA with zero upper bits —
    callers strip TBI tags first); access to an unmapped or non-canonical
    address raises {!Memory.Fault}, which is how a corrupted (failed-auth)
    pointer manifests as a crash. A write checks only its first byte
    against the read-only regions; a word that straddles two pages is
    moved a byte at a time, so its second page is checked on its own.

    Pages are found through a small direct-mapped cache in front of the
    page table; {!Memory.map}, the word and byte accessors and the
    load/store unit all share it. *)
module Memory : sig
  type t

  type fault =
    | Unmapped of int64            (** page never allocated *)
    | Non_canonical of int64       (** PAC bits set — likely corrupted pointer *)
    | Read_only of int64           (** write to a protected region *)

  exception Fault of fault

  val fault_to_string : fault -> string

  val create : unit -> t

  val map : t -> addr:int64 -> size:int -> unit
  (** Make a region accessible (zero-filled). Pages already mapped keep
      their contents. *)

  val protect : t -> addr:int64 -> size:int -> unit
  (** Mark a mapped region read-only for normal writes. *)

  val read_u8 : t -> int64 -> int
  val write_u8 : t -> int64 -> int -> unit
  val read_u64 : t -> int64 -> int64
  val write_u64 : t -> int64 -> int64 -> unit

  val write_u64_raw : t -> int64 -> int64 -> unit
  (** Privileged write ignoring read-only protection — used by the runtime
      to build its own metadata, never by interpreted code. *)

  (** {2 Load/store unit}

      The machine's loads and stores. A register file is a [bytes] of
      native-endian 64-bit registers, and [dst], [src] and [addr] are byte
      offsets into it: the address is read from [regs] at [addr], and the
      value moves between memory and [regs] in place, so no [int64] is
      boxed on the way. The rules and faults are those of {!read_u64},
      {!read_u8}, {!write_u64} and {!write_u8}; an offset outside [regs]
      raises [Invalid_argument] before memory is touched. The machine's
      own loads and stores run the same code inlined, on offsets that
      resolution checked. *)

  val load : t -> bytes -> dst:int -> addr:int -> byte:bool -> unit
  (** The word at the address, or with [byte] its byte zero-extended. *)

  val store : t -> bytes -> src:int -> addr:int -> byte:bool -> unit
  (** The word at [src], or with [byte] its low byte. *)

  val read_bytes : t -> int64 -> int -> bytes
  val write_bytes : t -> int64 -> bytes -> unit

  val read_cstring : t -> int64 -> string
  (** Read a NUL-terminated string (capped at 64 KiB). *)

  val write_cstring : t -> int64 -> string -> unit
  (** Write string bytes plus a terminating NUL. *)
end
