(** Semantics of the Pointer Authentication instructions ([pac*], [aut*],
    [xpac]) the RSTI pass emits, executed over the simulated address layout
    ({!Vaddr}) with the QARMA-like cipher ({!Qarma}).

    Signing computes [PAC = truncate(QARMA(key, tweak=modifier, address))]
    and stores it in the pointer's unused bits; authentication recomputes
    it, strips it on a match and corrupts the pointer on a mismatch —
    exactly the behaviour of Figure 3 in the paper.

    The operations work in place on a register file, as [Interp.Memory.load]
    and [store] do: a [bytes] of native-endian 64-bit registers, with
    [dst], [src] and [modifier] byte offsets into it. Every operand is
    read before the result is written, so [dst] may equal either, and no
    [int64] crosses a call boxed: an operation allocates nothing. *)

type ctx
(** Everything an instruction needs: the kernel's key bank, the machine's
    address layout, and a memo of cipher outputs. The memo is the only
    mutable part and each context has its own, so contexts on different
    domains share nothing. *)

val layout : ctx -> Vaddr.config

val make : ?layout:Vaddr.config -> seed:int64 -> unit -> ctx
(** Fresh context with deterministically generated keys. The layout
    defaults to {!Vaddr.default} (48-bit VA, TBI on). *)

val sign :
  ctx -> key:Key.which -> bytes -> dst:int -> src:int -> modifier:int -> unit
(** [pacia]/[pacda...]: sign a pointer. NULL (zero) is never signed and
    always authenticates — zero-initialised memory holds valid null
    pointers, as in deployed PA-based schemes. The pointer is canonicalised
    first (signing an already-signed pointer signs the *stripped* address,
    as hardware effectively garbles; we canonicalise for determinism — the
    RSTI pass never double-signs). Under TBI the top byte is excluded from
    the PAC input, so a CE tag can be added after signing without
    invalidating the signature. *)

val auth :
  ctx -> key:Key.which -> bytes -> dst:int -> src:int -> modifier:int -> bool
(** [autia]/[autda...]: authenticate. On a match, [true], and [dst] holds
    the stripped canonical pointer; on a PAC mismatch, [false], and [dst]
    holds the corrupted pointer hardware leaves behind (top two PAC bits
    flipped — dereferencing it faults). *)

val strip : ctx -> bytes -> dst:int -> src:int -> unit
(** [xpac]: remove the PAC without authenticating (used when calling into
    uninstrumented external libraries, section 4.6). *)

val is_signed : ctx -> bytes -> int -> bool
(** Whether any PAC bits are present (true for signed or corrupted
    pointers; a heuristic only — a PAC can coincidentally be zero). *)

val mac :
  ctx -> key:Key.which -> bytes -> dst:int -> src:int -> modifier:int -> unit
(** The full 64-bit cipher output for the raw word at [src] under the
    modifier: the shadow-MAC backend's MAC (section 7). It shares the
    memo with {!sign} and {!auth}. *)

(** {2 The memo}

    A direct-mapped table of 32-byte entries (tag, modifier, input,
    output). It starts at 256 entries (8 KB), doubles whenever it has
    missed more than a quarter as many times as it has entries since it
    last grew, and stops at {!memo_cap} entries: at most [memo_cap * 32] bytes (1 MB) per
    context, so per machine. A full table evicts on a miss. Results do
    not depend on what the table holds. *)

val memo_cap : int
(** 32,768 entries. *)

val memo_entries : ctx -> int
(** The table's current size, in entries. *)
