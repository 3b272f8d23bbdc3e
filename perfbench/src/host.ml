(* Host-speed probe. On a small shared VM the speed of one instruction
   stream drifts by up to about 2x, for tens of seconds at a time, as
   other tenants' work comes and goes on the same cores. That drift is a
   property of the host, not of the program, and no median within one
   run removes it.

   The probe is a fixed integer loop, timed between units. Its time
   follows the host's current speed; the program under test never runs
   it, so a change to the program leaves it alone. The harness divides
   each timing by the slowdown the probes measured around it:
   normalised = wall * reference_ns / probe_ns. Normalised times are in
   seconds on a host where the loop takes [reference_ns]. *)

let reference_ns = 20_000

(* About 20 us on an idle x86-64 core. Throughput-bound on purpose: a
   dependent multiply chain or a table walk hardly slows when the host
   is loaded, this loop slows about as the code under test does. *)
let loop () =
  let x = ref 0 in
  for i = 1 to 20_000 do
    x := !x + ((i * i) lxor (i lsr 3))
  done;
  !x

(* Mean time of [k] runs of the loop, ns. Allocates nothing, so probes
   leave a pass's minor-heap count unchanged however many run. *)
let probe_ns k =
  let t0 = Trace.now_ns () in
  for _ = 1 to k do
    ignore (Sys.opaque_identity (loop ()))
  done;
  (Trace.now_ns () - t0) / k

(* Slowdown from the mean of two probe times. *)
let slowdown a b = float_of_int (a + b) /. float_of_int (2 * reference_ns)
