(** Byte-addressable sparse paged memory with little-endian word access
    and read-only regions (the pointer-to-pointer CE/FE metadata store is
    read-only, paper section 4.7.7).

    Addresses must be canonical (fit the 48-bit VA with zero upper bits —
    callers strip TBI tags first); access to an unmapped or non-canonical
    address raises {!Fault}, which is how a corrupted (failed-auth)
    pointer manifests as a crash. *)

type t

type fault =
  | Unmapped of int64            (** page never allocated *)
  | Non_canonical of int64       (** PAC bits set — likely corrupted pointer *)
  | Read_only of int64           (** write to a protected region *)

exception Fault of fault

val fault_to_string : fault -> string

val create : unit -> t

val map : t -> addr:int64 -> size:int -> unit
(** Make a region accessible (zero-filled). *)

val protect : t -> addr:int64 -> size:int -> unit
(** Mark a mapped region read-only for normal writes. *)

val read_u8 : t -> int64 -> int
val write_u8 : t -> int64 -> int -> unit
val read_u64 : t -> int64 -> int64
val write_u64 : t -> int64 -> int64 -> unit

val write_u64_raw : t -> int64 -> int64 -> unit
(** Privileged write ignoring read-only protection — used by the runtime
    to build its own metadata, never by interpreted code. *)

val read_bytes : t -> int64 -> int -> bytes
val write_bytes : t -> int64 -> bytes -> unit

val read_cstring : t -> int64 -> string
(** Read a NUL-terminated string (capped at 64 KiB). *)

val write_cstring : t -> int64 -> string -> unit
(** Write string bytes plus a terminating NUL. *)
