(* The security evaluation as a test suite: every Table 1 attack must
   succeed with no defense and be detected by all three RSTI mechanisms;
   the Table 2 substitution matrix must match the paper's claims; the
   non-FPAC (plain ARMv8.3) path must also end in a crash at the use of
   the corrupted pointer. *)

module S = Rsti_attacks.Scenario
module RT = Rsti_sti.Rsti_type
module Interp = Rsti_machine.Interp
module Pipeline = Rsti_engine.Pipeline

let checkb = Alcotest.(check bool)

let verdict = Alcotest.testable
    (fun fmt v -> Format.pp_print_string fmt (S.verdict_to_string v))
    ( = )

(* one test per (scenario, mechanism) cell *)
let catalog_tests =
  List.concat_map
    (fun sc ->
      Alcotest.test_case
        (sc.S.id ^ ": baseline succeeds")
        `Quick
        (fun () ->
          Alcotest.check verdict "baseline" S.Attack_succeeded
            (S.run_baseline sc).S.verdict)
      :: List.map
           (fun mech ->
             Alcotest.test_case
               (Printf.sprintf "%s: %s detects" sc.S.id (RT.mechanism_to_string mech))
               `Quick
               (fun () ->
                 Alcotest.check verdict "detected" S.Detected (S.run sc mech).S.verdict))
           RT.all_mechanisms)
    Rsti_attacks.Catalog.all

(* Table 2 matrix *)
let substitution_tests =
  List.concat_map
    (fun (sc, expectations) ->
      Alcotest.test_case (sc.S.id ^ ": baseline succeeds") `Quick (fun () ->
          Alcotest.check verdict "baseline" S.Attack_succeeded
            (S.run_baseline sc).S.verdict)
      :: List.map
           (fun (mech, expected) ->
             Alcotest.test_case
               (Printf.sprintf "%s under %s" sc.S.id (RT.mechanism_to_string mech))
               `Quick
               (fun () ->
                 Alcotest.check verdict "matrix" expected (S.run sc mech).S.verdict))
           expectations)
    Rsti_attacks.Substitution.expected

(* ---------------- memory-safety scenarios (Table 2) ----------------- *)

let memory_safety_tests =
  List.concat_map
    (fun (sc, expectations) ->
      Alcotest.test_case (sc.S.id ^ ": baseline succeeds") `Quick (fun () ->
          Alcotest.check verdict "baseline" S.Attack_succeeded
            (S.run_baseline sc).S.verdict)
      :: List.map
           (fun (mech, expected) ->
             Alcotest.test_case
               (Printf.sprintf "%s under %s" sc.S.id (RT.mechanism_to_string mech))
               `Quick
               (fun () ->
                 Alcotest.check verdict "memory safety" expected (S.run sc mech).S.verdict))
           expectations)
    Rsti_attacks.Memory_safety.expected

(* ------------------------ CFI baseline claims ----------------------- *)

(* The paper's introduction: data-oriented attacks and same-signature
   code reuse bypass CFI entirely; RSTI stops them. *)
let cfi_must_miss =
  [ "aocr-nginx-2"; "aocr-apache"; "control-jujutsu"; "pittypat-coop";
    "dop-proftpd"; "ghttpd" ]

let cfi_tests =
  List.map
    (fun id ->
      Alcotest.test_case (id ^ ": evades signature-CFI") `Quick (fun () ->
          let sc = List.find (fun sc -> sc.S.id = id) Rsti_attacks.Catalog.all in
          Alcotest.check verdict "cfi misses" S.Attack_succeeded
            (S.run_cfi sc).S.verdict))
    cfi_must_miss
  @ [
      Alcotest.test_case "signature-CFI catches arity-mismatched redirects" `Quick
        (fun () ->
          Alcotest.check verdict "cfi catches newton-cscfi" S.Detected
            (S.run_cfi Rsti_attacks.Catalog.newton_cscfi).S.verdict);
      Alcotest.test_case "signature-CFI does not break benign dispatch" `Quick
        (fun () ->
          (* a legitimate function-pointer program must run under CFI *)
          let c =
            Pipeline.compile
              (Pipeline.source ~file:"cfi.c"
                 "extern int printf(const char* f, ...);\n\
                  long twice(long x) { return 2 * x; }\n\
                  long thrice(long x) { return 3 * x; }\n\
                  long (*ops[2])(long x);\n\
                  int main(void) { ops[0] = twice; ops[1] = thrice;\n\
                  long s = 0; for (int i = 0; i < 6; i++) { s += ops[i % 2](i); }\n\
                  printf(\"%ld\\n\", s); return (int) s; }")
          in
          match (Pipeline.run_baseline ~cfi:true c).Interp.status with
          | Interp.Exited n -> Alcotest.(check int64) "sum" 39L n
          | Interp.Trapped t -> Alcotest.failf "CFI broke benign code: %s"
                                  (Interp.trap_to_string t));
    ]

(* --------------------- shadow-MAC backend (sec. 7) ------------------ *)

let run_shadow sc mech =
  let a = Pipeline.(analyze (compile (source ~file:"t.c" sc.S.program))) in
  Pipeline.run ~backend:`Shadow_mac ~attacks:sc.S.attacks
    (Pipeline.instrument mech a)

let shadow_backend_tests =
  List.map
    (fun sc ->
      Alcotest.test_case (sc.S.id ^ ": shadow-MAC backend detects") `Quick
        (fun () -> checkb "detected" true (Interp.detected (run_shadow sc RT.Stwc))))
    Rsti_attacks.Catalog.all
  @ [
      Alcotest.test_case "shadow-MAC stops in-class replay (beyond PAC-STWC)" `Quick
        (fun () ->
          checkb "detected" true
            (Interp.detected
               (run_shadow Rsti_attacks.Substitution.same_rsti_replay RT.Stwc)));
      Alcotest.test_case "shadow-MAC preserves clean behaviour" `Quick
        (fun () ->
          let w = List.hd Rsti_workloads.Nginx.all in
          let c =
            Pipeline.compile
              (Pipeline.source ~file:"w.c" w.Rsti_workloads.Workload.source)
          in
          let base = Pipeline.run_baseline c in
          let i = Pipeline.instrument RT.Stwc (Pipeline.analyze c) in
          let o = Pipeline.run ~backend:`Shadow_mac i in
          Alcotest.(check string) "same output" base.Interp.output o.Interp.output;
          checkb "costs more than PAC" true
            (let p = Pipeline.run i in
             o.Interp.cycles > p.Interp.cycles));
    ]

(* ------------------------- non-FPAC behaviour ----------------------- *)

let test_without_fpac_crash_at_use () =
  (* plain ARMv8.3: the failing aut leaves a corrupted pointer and the
     crash happens at the subsequent use, still attributable to the
     authentication failure *)
  let sc = Rsti_attacks.Catalog.cve_libtiff in
  let a = Pipeline.(analyze (compile (source ~file:"t.c" sc.S.program))) in
  let o =
    Pipeline.run ~fpac:false ~flight:1 ~attacks:sc.S.attacks
      (Pipeline.instrument RT.Stwc a)
  in
  checkb "still detected (deref faults)" true (Interp.detected o);
  (match o.Interp.status with
  | Interp.Trapped (Interp.Pac_auth_failure _) ->
      Alcotest.fail "without FPAC there must be no synchronous trap"
  | _ -> ());
  Alcotest.(check int) "one auth-failure incident" 1
    (List.length o.Interp.incidents)

let test_fpac_traps_synchronously () =
  let sc = Rsti_attacks.Catalog.cve_libtiff in
  let r = S.run sc RT.Stwc in
  match r.S.outcome.Interp.status with
  | Interp.Trapped (Interp.Pac_auth_failure _) -> ()
  | _ -> Alcotest.fail "FPAC must trap at the aut instruction"

(* -------------------- scenario metadata sanity ---------------------- *)

let test_table1_has_twelve_rows () =
  Alcotest.(check int) "12 attacks" 12 (List.length Rsti_attacks.Catalog.table1)

let test_categories_cover_both () =
  let cf, dta =
    List.partition
      (fun sc -> sc.S.category = S.Control_flow)
      Rsti_attacks.Catalog.table1
  in
  checkb "control-flow attacks present" true (List.length cf > 0);
  checkb "data-oriented attacks present" true (List.length dta > 0)

let test_attacker_cannot_forge_pac () =
  (* writing a *guessed* PAC'ed value must still fail: only the kernel's
     keys produce valid PACs *)
  let src =
    "extern void* malloc(long n);\nextern int printf(const char* f, ...);\n\
     char* msg;\nvoid show(int r) { printf(\"%s\\n\", msg); }\n\
     int main(void) { msg = (char*) malloc(8); msg[0] = 'o'; msg[1] = 'k'; msg[2] = 0;\n\
     show(1); show(2); return 0; }"
  in
  let forged_guess = 0x2A00_2000_0000_0000L (* wrong-PAC heap pointer *) in
  let atk =
    {
      Interp.trigger = Interp.On_call ("show", 2);
      action = (fun intr -> intr.write_word (intr.global_addr "msg") forged_guess);
    }
  in
  let a = Pipeline.(analyze (compile (source ~file:"t.c" src))) in
  let o = Pipeline.run ~attacks:[ atk ] (Pipeline.instrument RT.Stwc a) in
  checkb "forged PAC rejected" true (Interp.detected o)

let test_detected_requires_auth_failure () =
  (* a plain crash with no auth failure must NOT count as detection *)
  let src =
    "int main(void) { long* p = NULL; long* q = p + 1; return (int) *q; }"
  in
  let o = Pipeline.run_baseline (Pipeline.compile (Pipeline.source ~file:"t.c" src)) in
  checkb "null-deref crash is not detection" false (Interp.detected o)

(* ------------------ static/dynamic cross-validation ----------------- *)

(* The static analyzer's replay verdicts against the machine oracle:
   every catalog substitution scenario and every generated candidate
   (same-class replays plus cross-class controls, over the catalog
   programs and the crossval corpus) must agree — zero disagreements is
   the acceptance bar, not a statistic. *)
let test_crossval_zero_disagreements () =
  let module X = Rsti_attacks.Crossval in
  let s = X.summarize () in
  checkb "some comparisons ran" true (s.X.s_checked > 0);
  Alcotest.(check int) "zero disagreements" 0 s.X.s_disagreements;
  List.iter
    (fun (r : X.catalog_row) ->
      checkb
        (Printf.sprintf "catalog %s/%s agrees" r.X.cr_scenario
           (RT.mechanism_to_string r.X.cr_mech))
        true r.X.cr_agree)
    s.X.s_catalog;
  (* The generated pool must exercise both directions: same-class
     replays that the static side predicts, and cross-class controls.
     Every executed cross-class control must trap — in particular the
     STL rows, where every class is a singleton, check the
     singleton-class => dynamic-trap direction. *)
  let same, cross =
    List.partition (fun (g : X.gen_row) -> g.X.g_kind = X.Same_class)
      s.X.s_generated
  in
  checkb "same-class candidates generated" true (same <> []);
  checkb "cross-class controls generated" true (cross <> []);
  List.iter
    (fun (g : X.gen_row) ->
      checkb
        (Printf.sprintf "%s/%s: %s over %s not predicted" g.X.g_program
           (RT.mechanism_to_string g.X.g_mech) g.X.g_donor g.X.g_victim)
        false g.X.g_predicted;
      match g.X.g_detected with
      | Some d ->
          checkb
            (Printf.sprintf "%s/%s: cross-class replay of %s over %s traps"
               g.X.g_program
               (RT.mechanism_to_string g.X.g_mech)
               g.X.g_donor g.X.g_victim)
            true d
      | None -> ())
    cross

let tests =
  catalog_tests @ substitution_tests @ memory_safety_tests @ cfi_tests
  @ shadow_backend_tests
  @ [
      Alcotest.test_case "crossval: static = dynamic, zero disagreements"
        `Slow test_crossval_zero_disagreements;
      Alcotest.test_case "non-FPAC: crash at use" `Quick test_without_fpac_crash_at_use;
      Alcotest.test_case "FPAC: synchronous trap" `Quick test_fpac_traps_synchronously;
      Alcotest.test_case "table1: twelve rows" `Quick test_table1_has_twelve_rows;
      Alcotest.test_case "table1: both categories" `Quick test_categories_cover_both;
      Alcotest.test_case "attacker cannot forge PACs" `Quick test_attacker_cannot_forge_pac;
      Alcotest.test_case "detection needs auth failure" `Quick test_detected_requires_auth_failure;
    ]
