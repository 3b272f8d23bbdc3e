(** IR well-formedness verifier, run by tests over both freshly lowered
    and instrumented modules (the analogue of LLVM's module verifier).

    Checks, per function:
    - every branch target is a valid block label;
    - every register read is defined by some instruction or is an
      incoming parameter, and no register is defined twice;
    - instruction payloads are sane: loads/stores have loadable types,
      GEP struct/field pairs exist in the module, string-table and
      global references resolve;
    - non-void functions only return values, void functions none;
    - [Pac]/[Pp] instructions reference valid keys and CE range. *)

type error = { fn : string; msg : string }

val verify : Ir.modul -> error list
(** All violations found (empty = well-formed). *)
