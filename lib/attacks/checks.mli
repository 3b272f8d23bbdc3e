(** Outcome predicates shared by the attack scenarios. *)

val extern_called : string -> Rsti_machine.Interp.outcome -> bool
(** The simulated-libc function was invoked at least once. *)

val extern_called_times : string -> int -> Rsti_machine.Interp.outcome -> bool
(** ... at least [n] times. *)

val func_called : string -> Rsti_machine.Interp.outcome -> bool
(** The defined function was entered at least once. *)

val output_contains : string -> Rsti_machine.Interp.outcome -> bool
(** The program printed the given substring. *)
