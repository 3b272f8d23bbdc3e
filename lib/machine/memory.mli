(** Byte-addressable sparse paged memory with little-endian word access
    and read-only regions (the pointer-to-pointer CE/FE metadata store is
    read-only, paper section 4.7.7).

    Addresses must be canonical (fit the 48-bit VA with zero upper bits —
    callers strip TBI tags first); access to an unmapped or non-canonical
    address raises {!Fault}, which is how a corrupted (failed-auth)
    pointer manifests as a crash. A write checks only its first byte
    against the read-only regions; a word that straddles two pages is
    moved a byte at a time, so its second page is checked on its own.

    Pages are found through a small direct-mapped cache in front of the
    page table; {!map}, the word and byte accessors and the load/store
    unit all share it. *)

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
    raises [Invalid_argument] from the [Bytes] accessor. *)

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
