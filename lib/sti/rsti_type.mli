(** RSTI-types: the security context each mechanism derives from a
    pointer's scope, type, and permission (paper section 4.5), and the
    64-bit PA modifiers derived from them.

    A pointer whose runtime usage does not match the modifier derived from
    its RSTI-type fails authentication — that is the entire enforcement
    story, so modifier derivation must be deterministic and injective on
    distinct RSTI-types (up to the 64-bit hash). *)

type mechanism =
  | Stwc   (** scope-type without combining (main mechanism) *)
  | Stc    (** scope-type with combining of cast-compatible types *)
  | Stl    (** scope-type + location (&p folded into the modifier) *)
  | Parts  (** baseline: basic element type only, as in PARTS *)
  | Nop    (** no instrumentation (baseline for overhead ratios) *)

val mechanism_to_string : mechanism -> string

val mechanism_slug : mechanism -> string
(** The lower-case name the command line and the bench JSON use: stwc,
    stc, stl, parts, none. *)

val all_mechanisms : mechanism list
(** The three RSTI mechanisms, in the paper's order: STWC, STC, STL. *)

type t = {
  rt_types : string list;   (** basic types in the class, sorted; singleton
                                for STWC/STL, possibly larger for STC *)
  rt_scope : string list;   (** scope: function names and ["struct X"]
                                composite names, sorted *)
  rt_read_only : bool;      (** permission: R (true) or R/W (false) *)
}

val make : types:string list -> scope:string list -> read_only:bool -> t
(** Canonicalise (sort, dedup) and build. *)

val to_string : t -> string
(** Stable rendering, e.g. ["{ctx*,void*} @ {foo2,main} R/W"]; used both
    for reports and as the hash pre-image. *)

val modifier : t -> int64
(** The 64-bit PA modifier: a splitmix-mixed FNV-1a hash of
    {!to_string}. *)

val parts_modifier : string -> int64
(** The PARTS baseline modifier: hash of the basic type name alone
    (the LLVM ElementType analogue, paper section 8). *)

val equal : t -> t -> bool
val compare : t -> t -> int
