(* The paper's Figure 2 motivating example, end to end: the GHTTPD
   data-oriented attack, narrated. An attacker corrupts a *data* pointer
   (no control data touched) to smuggle a crafted URL past the "/.."
   validation and reach system().

   Run with: dune exec examples/webserver_attack.exe *)

module S = Rsti_attacks.Scenario
module RT = Rsti_sti.Rsti_type
module Interp = Rsti_machine.Interp

let narrate label (r : S.run_result) =
  let o = r.S.outcome in
  Printf.printf "--- %s ---\n" label;
  List.iter (Printf.printf "  [attacker] %s\n") o.Interp.notes;
  List.iter
    (fun line -> if line <> "" then Printf.printf "  [out] %s\n" line)
    (String.split_on_char '\n' o.Interp.output);
  if Rsti_attacks.Checks.extern_called "system" o then
    print_endline "  [!] system() reached";
  (match o.Interp.status with
  | Interp.Exited n -> Printf.printf "  program exited with %Ld\n" n
  | Interp.Trapped tr -> Printf.printf "  program TRAPPED: %s\n" (Interp.trap_to_string tr));
  Printf.printf "  verdict: %s\n\n" (S.verdict_to_string r.S.verdict)

let () =
  let sc = Rsti_attacks.Catalog.ghttpd in
  print_endline "GHTTPD data-oriented attack (paper Figure 2)\n";
  print_endline "Victim code under attack:";
  print_endline sc.S.program;
  narrate "no defense" (S.run_baseline sc);
  List.iter
    (fun mech -> narrate (RT.mechanism_to_string mech) (S.run sc mech))
    RT.all_mechanisms;
  print_endline
    "The corrupted req->ptr is a plain char* data pointer: classic CFI\n\
     never sees this attack. RSTI signs it on store with the RSTI-type of\n\
     struct request::ptr; the attacker's raw overwrite carries no valid\n\
     PAC and the next authenticated load traps."
