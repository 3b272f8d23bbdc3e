(** Minimal JSON (no external dependency): the one value type and printer
    behind every JSON document the tree writes — lint and analysis
    reports, bench JSON, the telemetry sinks of [Rsti_observe] — and a
    strict parser that tests use to read them back. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float       (** NaN/infinities render as [null] *)
  | Str of string
  | List of t list
  | Obj of (string * t) list

val to_string : ?indent:bool -> t -> string
(** Render. [indent] (default true) pretty-prints with two-space
    indentation; [false] emits a compact single line. *)

val of_string : string -> (t, string) result
(** Strict JSON parser over the same value type (tests and CI round-trip
    the telemetry/SARIF documents through it). Integral numbers parse as
    [Int], others as [Float]; [\u] escapes re-encode as UTF-8; trailing
    non-whitespace input is an error. *)
