(** A QARMA-style tweakable block cipher: 64-bit block, 64-bit tweak,
    128-bit key.

    This is the cryptographic core behind the simulated ARM PA
    instructions, standing in for the QARMA-64 cipher ARMv8.3 recommends.
    The construction follows QARMA's shape — a substitution-permutation
    network over sixteen 4-bit cells with a cell shuffle, an involutory
    MixColumns-like diffusion step, a per-round evolving tweak (cell
    permutation + LFSR on selected cells) and a central reflector — but
    the constants are our own, so it must be treated as QARMA-*like*, not
    QARMA. For this repository's purpose (a pseudorandom function of
    (pointer, modifier, key) truncated into unused pointer bits) only
    pseudorandomness and invertibility matter; both are tested. *)

type key = { k0 : int64; w0 : int64 }
(** 128-bit key split into the core key [k0] and whitening key [w0],
    mirroring QARMA's k/w split. *)

val key_of_rng : Rsti_util.Splitmix.t -> key
(** Draw a fresh key from the deterministic RNG. *)

val rounds : int
(** Number of forward rounds (the cipher runs [rounds] forward, a
    reflector, and [rounds] backward, QARMA's r=7 recommendation). *)

val encrypt : key:key -> tweak:int64 -> int64 -> int64
(** [encrypt ~key ~tweak block]: the forward permutation. *)

val decrypt : key:key -> tweak:int64 -> int64 -> int64
(** Exact inverse of {!encrypt} for the same key and tweak. *)

val encrypt_at : key -> bytes -> tweak:int -> block:int -> dst:int -> unit
(** {!encrypt} over native-endian 64-bit words of a [bytes]: the tweak
    and the block are read at those byte offsets and the ciphertext is
    written at [dst], so no [int64] is boxed on the way and nothing is
    allocated. [dst] may be [block]'s offset. *)
