(** Deterministic pseudo-random number generation (splitmix64).

    Everything in this repository that needs randomness — the workload
    generator, property tests seeds, PA key generation — goes through this
    module so that runs are reproducible from a single integer seed. *)

type t
(** Mutable generator state. *)

val create : int64 -> t
(** [create seed] makes a fresh generator. Equal seeds give equal streams. *)

val copy : t -> t
(** Independent copy of the current state. *)

val next64 : t -> int64
(** Next 64-bit value, uniform over all 2^64 values. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. [bound] must be positive. *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] is uniform in [\[lo, hi\]] inclusive. Requires [lo <= hi]. *)

val bool : t -> bool
(** Fair coin. *)

val chance : t -> float -> bool
(** [chance t p] is [true] with probability [p]. *)

val float : t -> float -> float
(** [float t x] is uniform in [\[0, x)]. *)

val pick : t -> 'a list -> 'a
(** Uniform choice from a non-empty list. Raises [Invalid_argument] on []. *)

val weighted : t -> (int * 'a) list -> 'a
(** [weighted t choices] picks proportionally to the integer weights.
    Weights must be non-negative with a positive sum. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)

val split : t -> t
(** Derive an independent generator (splitmix "split" operation). *)
