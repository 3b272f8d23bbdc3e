(** Virtual-address layout for the simulated AArch64 machine: where the
    Pointer Authentication Code lives inside a 64-bit pointer, and how a
    failed authentication corrupts a pointer.

    The model follows ARMv8.3 with 48-bit virtual addresses:

    - bits [0..47] — the virtual address proper;
    - bit 55 — the address-space selector (kernel/user half), preserved by
      signing and used to re-canonicalise on strip;
    - bits [48..54] and, when Top-Byte-Ignore is disabled, [56..63] — the
      PAC field;
    - when TBI is enabled the top byte [56..63] is ignored by translation
      and is available to software tags (RSTI's pointer-to-pointer Compact
      Equivalent lives there), leaving the PAC only bits [48..54]. *)

type config = {
  va_bits : int;  (** virtual-address width, 48 in the evaluation *)
  tbi : bool;     (** Top-Byte-Ignore: top byte excluded from the PAC *)
}

val default : config
(** 48-bit VA, TBI enabled — the configuration RSTI needs, since its
    pointer-to-pointer mechanism stores the CE tag in the top byte. *)

val no_tbi : config
(** 48-bit VA with TBI disabled: widest PAC field (15 bits). *)

val pac_width : config -> int
(** Number of pointer bits available to the PAC. *)

val canonical : config -> int64 -> int64
(** Clear the PAC field (and top byte under TBI), sign-extending bit 55
    into the upper bits the way hardware expects canonical pointers. *)

val is_canonical : config -> int64 -> bool
(** True iff the pointer has no PAC bits set, i.e. [canonical] is the
    identity on it. *)

val embed_pac : config -> pac:int64 -> int64 -> int64
(** Insert the low [pac_width] bits of [pac] into the pointer's PAC field.
    Leaves the top byte alone under TBI. *)

val extract_pac : config -> int64 -> int64
(** Read the PAC field back, right-aligned. *)

val corrupt : config -> int64 -> int64
(** The pointer produced by a failing [aut*] instruction: the two most
    significant PAC-field bits are flipped, making the pointer
    non-canonical so any dereference faults (paper section 2.4). *)

val top_byte : int64 -> int
(** The top byte [56..63], where the pointer-to-pointer CE tag lives. *)

val with_top_byte : int64 -> int -> int64
(** Replace the top byte. Only meaningful under TBI. *)

(** {2 In place}

    The same arithmetic over native-endian 64-bit words of a [bytes]
    (the machine's register file), at byte offsets, in the idiom of
    [Memory.load]/[store]: the pointer is read at [src] (or [off]) and
    the result written at [dst], which may be [src]. No [int64] crosses
    the call boxed, so the PA unit's operations allocate nothing. A PAC
    field is at most 15 bits, so it passes as an [int]. *)

val canonical_at : config -> bytes -> dst:int -> src:int -> unit
val is_canonical_at : config -> bytes -> int -> bool

val embed_pac_at : config -> bytes -> dst:int -> src:int -> pac:int -> unit
(** {!embed_pac} of the low [pac_width] bits of [pac]. *)

val extract_pac_at : config -> bytes -> int -> int
val corrupt_at : config -> bytes -> dst:int -> src:int -> unit

val pac_input_at : config -> bytes -> int -> int
(** What the PAC covers: the canonical pointer, with the top byte
    cleared under TBI so that software tags do not perturb the PAC. Its
    top two bits are equal, so the 64-bit value fits an [int] exactly. *)

val top_byte_at : bytes -> int -> int
val with_top_byte_at : bytes -> dst:int -> src:int -> int -> unit
