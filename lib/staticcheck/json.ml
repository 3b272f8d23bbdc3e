(* The JSON module lives in [Rsti_util.Json], where the telemetry core
   (which sits below this library) can share it. This alias keeps the
   name [Rsti_staticcheck.Json], which this library's own modules and the
   perfbench harness use. *)
include Rsti_util.Json
