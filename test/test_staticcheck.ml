(* Tests for the static checker: lint determinism and coverage over the
   attack catalog, elision's safety invariant (no detection verdict ever
   changes), and the prover's bookkeeping invariants. *)

module Lint = Rsti_staticcheck.Lint
module Elide = Rsti_staticcheck.Elide
module Finding = Rsti_staticcheck.Finding
module Scenario = Rsti_attacks.Scenario
module RT = Rsti_sti.Rsti_type

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

module Pipeline = Rsti_engine.Pipeline

let analyze src =
  let a = Pipeline.(analyze (compile (source ~file:"t.c" src))) in
  (Pipeline.analyzed_ir a, Pipeline.analysis a)

let lint_src src =
  let m, anal = analyze src in
  Lint.run anal m

(* ------------------------- lint: determinism ----------------------- *)

(* Findings are a function of the source alone: compiling and linting a
   generated program twice (fresh module, fresh analysis, fresh hash
   tables) renders byte-identical reports. *)
let prop_lint_deterministic =
  QCheck.Test.make ~name:"lint deterministic over generated programs"
    ~count:15
    QCheck.(int_bound 10_000)
    (fun seed ->
      let src =
        Rsti_workloads.Generator.generate ~seed:(Int64.of_int seed) ()
      in
      let render () = Lint.render_json ~file:"gen.c" (lint_src src) in
      String.equal (render ()) (render ()))

(* ---------------------- lint: catalog coverage --------------------- *)

(* Every Table-1 victim program trips the checker, and across the
   catalog at least five distinct rules fire. *)
let test_catalog_coverage () =
  let kinds = Hashtbl.create 8 in
  List.iter
    (fun (sc : Scenario.t) ->
      let findings = lint_src sc.program in
      checkb (sc.id ^ " has findings") true (findings <> []);
      List.iter
        (fun (f : Finding.t) ->
          Hashtbl.replace kinds (Finding.kind_name f.kind) ())
        findings)
    Rsti_attacks.Catalog.all;
  let distinct = Hashtbl.length kinds in
  if distinct < 5 then
    Alcotest.failf "only %d distinct finding kinds across the catalog: %s"
      distinct
      (String.concat ", " (Hashtbl.fold (fun k () acc -> k :: acc) kinds []))

let test_lint_locations () =
  (* Findings that point into a function carry a usable line. *)
  List.iter
    (fun (sc : Scenario.t) ->
      List.iter
        (fun (f : Finding.t) ->
          if f.func <> "" then
            checkb
              (Printf.sprintf "%s: %s in %s has a line" sc.id
                 (Finding.kind_name f.kind) f.func)
              true (f.line >= 0))
        (lint_src sc.program))
    Rsti_attacks.Catalog.all

(* --------------------------- lint: SARIF ---------------------------- *)

(* The SARIF document parses, carries the 2.1.0 version tag and the
   stilint rule table, and every finding maps to a result whose ruleId
   is a declared rule. *)
let test_lint_sarif () =
  let module J = Rsti_staticcheck.Json in
  let sc = List.hd Rsti_attacks.Catalog.all in
  let findings = lint_src sc.program in
  let doc = Lint.render_sarif [ ("a.c", findings); ("b.c", []) ] in
  match J.of_string doc with
  | Error e -> Alcotest.failf "SARIF does not parse: %s" e
  | Ok (J.Obj fields) -> (
      checkb "version 2.1.0" true
        (List.assoc "version" fields = J.Str "2.1.0");
      match List.assoc "runs" fields with
      | J.List [ J.Obj run ] ->
          let driver =
            match List.assoc "tool" run with
            | J.Obj t -> (
                match List.assoc "driver" t with
                | J.Obj d -> d
                | _ -> Alcotest.fail "driver is not an object")
            | _ -> Alcotest.fail "tool is not an object"
          in
          checkb "driver is stilint" true
            (List.assoc "name" driver = J.Str "stilint");
          let rule_ids =
            match List.assoc "rules" driver with
            | J.List rules ->
                List.map
                  (function
                    | J.Obj r -> (
                        match List.assoc "id" r with
                        | J.Str id -> id
                        | _ -> Alcotest.fail "rule id is not a string")
                    | _ -> Alcotest.fail "rule is not an object")
                  rules
            | _ -> Alcotest.fail "rules is not a list"
          in
          checki "twelve declared rules" 12 (List.length rule_ids);
          (match List.assoc "results" run with
          | J.List results ->
              checki "one result per finding" (List.length findings)
                (List.length results);
              List.iter
                (function
                  | J.Obj r -> (
                      match List.assoc "ruleId" r with
                      | J.Str id ->
                          checkb ("ruleId declared: " ^ id) true
                            (List.mem id rule_ids)
                      | _ -> Alcotest.fail "ruleId is not a string")
                  | _ -> Alcotest.fail "result is not an object")
                results
          | _ -> Alcotest.fail "results is not a list")
      | _ -> Alcotest.fail "runs is not a one-element list")
  | Ok _ -> Alcotest.fail "SARIF document is not an object"

(* ------------------ lint: attack-surface opt-in --------------------- *)

(* Two same-typed global pointers share one (key, modifier) class under
   STWC, so the attack-surface pass must report the collision (warning)
   and, since globals are attacker-writable in the oracle model, at
   least one concrete feasible-substitution gadget (error). The base
   battery never emits either rule: they are opt-in. *)
let collision_src =
  {|
char buf[4];
char *a;
char *b;
int main(void) {
  char n;
  buf[0] = 65;
  a = buf;
  b = buf;
  n = *a;
  n = *b;
  return n;
}
|}

let test_attack_surface_opt_in () =
  let m, anal = analyze collision_src in
  let has kind fs =
    List.exists (fun (f : Finding.t) -> Finding.kind_name f.kind = kind) fs
  in
  let base = Lint.run anal m in
  checkb "base lint has no modifier-collision" false
    (has "modifier-collision" base);
  checkb "base lint has no feasible-substitution" false
    (has "feasible-substitution" base);
  let surface = Rsti_staticcheck.Attack_surface.surface anal m in
  let fs = Lint.run ~attack_surface:surface anal m in
  checkb "opt-in reports modifier-collision" true (has "modifier-collision" fs);
  checkb "opt-in reports feasible-substitution" true
    (has "feasible-substitution" fs);
  List.iter
    (fun (f : Finding.t) ->
      match Finding.kind_name f.kind with
      | "modifier-collision" ->
          checkb "collision is a warning" true (f.severity = Finding.Warning)
      | "feasible-substitution" ->
          checkb "substitution is an error" true (f.severity = Finding.Error)
      | _ -> ())
    fs

(* --------------- lint: scope-escape / stale-frame rules ------------- *)

let scope_of m =
  Rsti_dataflow.Scope_escape.analyze
    ~points_to:(Rsti_dataflow.Points_to.analyze m) m

let scope_positive_src =
  {|
int *leak;
int *give(void) { int slot; slot = 7; leak = &slot; return &slot; }
int main(void) { int *p; p = give(); return *p; }
|}

let scope_negative_src =
  {|
int fill(int *dst) { *dst = 5; return 0; }
int main(void) { int local; local = 0; fill(&local); return local; }
|}

let test_lint_scope_rules_positive () =
  let m, anal = analyze scope_positive_src in
  let findings = Lint.run ~scope:(scope_of m) anal m in
  let of_kind k =
    List.filter (fun (f : Finding.t) -> Finding.kind_name f.kind = k) findings
  in
  checkb "scope-escape fires" true (of_kind "scope-escape" <> []);
  List.iter
    (fun (f : Finding.t) ->
      checkb "scope-escape is a warning" true (f.severity = Finding.Warning))
    (of_kind "scope-escape");
  (match of_kind "stale-frame-deref" with
  | [] -> Alcotest.fail "stale-frame-deref did not fire"
  | fs ->
      checkb "must-deref of a dead frame is an error" true
        (List.exists (fun (f : Finding.t) -> f.severity = Finding.Error) fs));
  (* without ?scope the two rules stay silent *)
  List.iter
    (fun (f : Finding.t) ->
      let k = Finding.kind_name f.kind in
      checkb ("no " ^ k ^ " without scope input") true
        (k <> "scope-escape" && k <> "stale-frame-deref"))
    (Lint.run anal m)

let test_lint_scope_rules_negative () =
  let m, anal = analyze scope_negative_src in
  List.iter
    (fun (f : Finding.t) ->
      let k = Finding.kind_name f.kind in
      checkb ("clean program has no " ^ k) true
        (k <> "scope-escape" && k <> "stale-frame-deref"))
    (Lint.run ~scope:(scope_of m) anal m)

(* The analyze --format=sarif path: only the dataflow findings, round-
   tripped through the JSON parser, with declared ruleIds and the stale
   must-deref at error level. *)
let test_dataflow_findings_sarif_roundtrip () =
  let module J = Rsti_staticcheck.Json in
  let m, _ = analyze scope_positive_src in
  let findings = Lint.dataflow_findings (scope_of m) in
  checkb "dataflow findings exist" true (findings <> []);
  let doc = Lint.render_sarif [ ("p.c", findings) ] in
  match J.of_string doc with
  | Error e -> Alcotest.failf "SARIF does not parse: %s" e
  | Ok (J.Obj fields) -> (
      match List.assoc "runs" fields with
      | J.List [ J.Obj run ] ->
          let results =
            match List.assoc "results" run with
            | J.List rs -> rs
            | _ -> Alcotest.fail "results is not a list"
          in
          checki "one result per finding" (List.length findings)
            (List.length results);
          let seen_error = ref false in
          List.iter
            (function
              | J.Obj r ->
                  (match List.assoc "ruleId" r with
                  | J.Str id ->
                      checkb ("dataflow ruleId: " ^ id) true
                        (id = "scope-escape" || id = "stale-frame-deref")
                  | _ -> Alcotest.fail "ruleId is not a string");
                  if List.assoc_opt "level" r = Some (J.Str "error") then
                    seen_error := true
              | _ -> Alcotest.fail "result is not an object")
            results;
          checkb "the must stale-deref renders at error level" true !seen_error
      | _ -> Alcotest.fail "runs is not a one-element list")
  | Ok _ -> Alcotest.fail "SARIF document is not an object"

(* ------------------- elision: the safety invariant ------------------ *)

(* Elision must never change a detection verdict: any scenario, any
   mechanism, full vs elided instrumentation agree. Exercised as a
   property over the substitution micro-scenarios (where a wrongly
   elided auth shows up immediately as Detected -> Attack_succeeded). *)
let sub_scenarios =
  List.map fst Rsti_attacks.Substitution.expected
  @ List.map fst Rsti_attacks.Memory_safety.expected

let prop_elide_preserves_verdicts =
  let n = List.length sub_scenarios in
  let mechs = RT.all_mechanisms in
  QCheck.Test.make ~name:"elision preserves substitution verdicts"
    ~count:(n * List.length mechs)
    QCheck.(pair (int_bound (n - 1)) (int_bound (List.length mechs - 1)))
    (fun (i, j) ->
      let sc = List.nth sub_scenarios i in
      let mech = List.nth mechs j in
      let full = (Scenario.run sc mech).Scenario.verdict in
      let elided =
        (Scenario.run ~elision:Elide.Syntactic sc mech).Scenario.verdict
      in
      full = elided)

let test_table1_detected_under_elision () =
  List.iter
    (fun (sc : Scenario.t) ->
      List.iter
        (fun mech ->
          let r = Scenario.run ~elision:Elide.Syntactic sc mech in
          Alcotest.(check string)
            (Printf.sprintf "%s under %s+elide" sc.id
               (RT.mechanism_to_string mech))
            "detected"
            (Scenario.verdict_to_string r.Scenario.verdict))
        RT.all_mechanisms)
    Rsti_attacks.Catalog.all

let prop_elide_pt_preserves_verdicts =
  let n = List.length sub_scenarios in
  let mechs = RT.all_mechanisms in
  QCheck.Test.make ~name:"points-to elision preserves substitution verdicts"
    ~count:(n * List.length mechs)
    QCheck.(pair (int_bound (n - 1)) (int_bound (List.length mechs - 1)))
    (fun (i, j) ->
      let sc = List.nth sub_scenarios i in
      let mech = List.nth mechs j in
      let full = (Scenario.run sc mech).Scenario.verdict in
      let elided =
        (Scenario.run ~elision:Elide.With_points_to sc mech).Scenario.verdict
      in
      full = elided)

let test_table1_detected_under_pt_elision () =
  List.iter
    (fun (sc : Scenario.t) ->
      List.iter
        (fun mech ->
          let r = Scenario.run ~elision:Elide.With_points_to sc mech in
          Alcotest.(check string)
            (Printf.sprintf "%s under %s+elide:points-to" sc.id
               (RT.mechanism_to_string mech))
            "detected"
            (Scenario.verdict_to_string r.Scenario.verdict))
        RT.all_mechanisms)
    Rsti_attacks.Catalog.all

(* Every substitution and memory-safety scenario under every RSTI
   mechanism, not a sample: context elision must not change one verdict. *)
let test_elide_cs_preserves_verdicts () =
  List.iter
    (fun (sc : Scenario.t) ->
      List.iter
        (fun mech ->
          Alcotest.(check string)
            (Printf.sprintf "%s under %s+elide:context" sc.id
               (RT.mechanism_to_string mech))
            (Scenario.verdict_to_string (Scenario.run sc mech).Scenario.verdict)
            (Scenario.verdict_to_string
               (Scenario.run ~elision:(Elide.With_context 2) sc mech)
                 .Scenario.verdict))
        RT.all_mechanisms)
    sub_scenarios

let test_table1_detected_under_cs_elision () =
  List.iter
    (fun (sc : Scenario.t) ->
      List.iter
        (fun mech ->
          let r = Scenario.run ~elision:(Elide.With_context 2) sc mech in
          Alcotest.(check string)
            (Printf.sprintf "%s under %s+elide:context" sc.id
               (RT.mechanism_to_string mech))
            "detected"
            (Scenario.verdict_to_string r.Scenario.verdict))
        RT.all_mechanisms)
    Rsti_attacks.Catalog.all

(* ------------------ elision: soundness monotonicity ----------------- *)

(* The points-to upgrade may only move slots from Must_check to
   Provably_safe, never the reverse: every syntactically-safe slot stays
   safe when the Andersen confinement proof is added. Property-checked
   over generated programs (plus the SPEC2006 kernels below, where the
   discharge actually fires). *)
let prop_elide_sound_monotone =
  QCheck.Test.make ~name:"points-to elision is sound-monotone" ~count:12
    QCheck.(int_bound 10_000)
    (fun seed ->
      let src =
        Rsti_workloads.Generator.generate ~seed:(Int64.of_int seed) ()
      in
      let m, anal = analyze src in
      let pt = Rsti_dataflow.Points_to.analyze m in
      let e_syn = Elide.analyze anal m in
      let e_pt = Elide.analyze ~points_to:pt anal m in
      List.for_all
        (fun (si : Rsti_sti.Analysis.slot_info) ->
          (not (Elide.elide e_syn si.slot)) || Elide.elide e_pt si.slot)
        (Rsti_sti.Analysis.pointer_vars anal))

let test_monotone_on_spec2006 () =
  List.iter
    (fun (w : Rsti_workloads.Workload.t) ->
      let m, anal =
        analyze (Rsti_workloads.Workload.analysis_source w)
      in
      let pt = Rsti_dataflow.Points_to.analyze m in
      let e_syn = Elide.analyze anal m in
      let e_pt = Elide.analyze ~points_to:pt anal m in
      List.iter
        (fun (si : Rsti_sti.Analysis.slot_info) ->
          if Elide.elide e_syn si.slot then
            checkb
              (Printf.sprintf "%s: %s stays safe under points-to" w.name
                 (Rsti_ir.Ir.slot_to_string si.slot))
              true (Elide.elide e_pt si.slot))
        (Rsti_sti.Analysis.pointer_vars anal);
      let s_syn = Elide.summary e_syn and s_pt = Elide.summary e_pt in
      checkb (w.name ^ " safe set grows monotonically") true
        (s_pt.Elide.safe >= s_syn.Elide.safe))
    Rsti_workloads.Spec2006.all

(* -------------------- lint: overflow-window split ------------------- *)

(* Regression: each pointer slot is a victim of its nearest preceding
   opener only. Two openers used to double-report everything behind the
   second one. *)
let test_window_nearest_opener () =
  let src =
    {|
int buf1[4];
int *p1;
int buf2[4];
int *p2;
int main(void) {
  buf1[0] = 1;
  buf2[0] = 2;
  p1 = &buf1[0];
  p2 = &buf2[0];
  return 0;
}
|}
  in
  let windows =
    List.filter_map
      (fun (f : Finding.t) ->
        match f.kind with
        | Finding.Overflow_window { opener; victims } -> Some (opener, victims)
        | _ -> None)
      (lint_src src)
  in
  checki "two windows, one per opener" 2 (List.length windows);
  let victims_of opener =
    match List.assoc_opt opener windows with
    | Some v -> v
    | None -> Alcotest.failf "no window for %s" opener
  in
  Alcotest.(check (list string)) "buf1 claims only p1" [ "p1" ]
    (victims_of "buf1");
  Alcotest.(check (list string)) "buf2 claims only p2" [ "p2" ]
    (victims_of "buf2");
  let mentions =
    List.length
      (List.filter (fun (_, vs) -> List.mem "p2" vs) windows)
  in
  checki "p2 reported exactly once" 1 mentions

let test_window_nearest_opener_struct () =
  let src =
    {|
struct two_windows {
  int a[4];
  int *pa;
  int b[4];
  int *pb;
};
struct two_windows g;
int main(void) {
  g.a[0] = 1;
  g.pa = &g.a[0];
  g.pb = &g.b[0];
  return 0;
}
|}
  in
  let windows =
    List.filter_map
      (fun (f : Finding.t) ->
        match f.kind with
        | Finding.Overflow_window { opener; victims } -> Some (opener, victims)
        | _ -> None)
      (lint_src src)
  in
  let struct_windows =
    List.filter (fun (o, _) -> String.length o > 4 && String.sub o 0 4 = "two_")
      windows
  in
  checki "two struct windows" 2 (List.length struct_windows);
  List.iter
    (fun (opener, victims) ->
      checki (opener ^ " claims exactly one victim") 1 (List.length victims))
    struct_windows

(* -------------------- elision: prover bookkeeping ------------------- *)

let test_summary_partition () =
  (* safe + sum(must-check tallies) = candidates, on every workload. *)
  List.iter
    (fun (w : Rsti_workloads.Workload.t) ->
      let m, anal = analyze w.source in
      let e = Elide.analyze anal m in
      let s = Elide.summary e in
      let tallied = List.fold_left (fun acc (_, n) -> acc + n) 0 s.reasons in
      checki (w.name ^ " partition") s.candidates (s.safe + tallied))
    Rsti_workloads.Spec2006.all

let test_elision_fires_on_pointer_light_kernels () =
  (* lbm and namd route their arrays through swap pointers the prover
     can discharge: the instrumenter must actually drop sites there. *)
  List.iter
    (fun name ->
      let w =
        List.find
          (fun (w : Rsti_workloads.Workload.t) -> w.name = name)
          Rsti_workloads.Spec2006.all
      in
      let a = Pipeline.(analyze (compile (source ~file:"t.c" w.source))) in
      let elide_config =
        { Pipeline.default with Pipeline.elision = Elide.Syntactic }
      in
      let i = Pipeline.instrument ~config:elide_config RT.Stwc a in
      checkb (name ^ " elides sites") true
        ((Pipeline.counts i).Rsti_rsti.Instrument.elided > 0))
    [ "lbm"; "namd" ]

let test_code_pointers_never_elided () =
  let src =
    {|
extern int printf(const char *fmt, ...);
int hello(int x) { return x + 1; }
int (*handler)(int);
int main(void) {
  handler = hello;
  printf("%d\n", handler(41));
  return 0;
}
|}
  in
  let m, anal = analyze src in
  let e = Elide.analyze anal m in
  List.iter
    (fun (si : Rsti_sti.Analysis.slot_info) ->
      if Rsti_minic.Ctype.is_code_pointer si.sty then
        checkb "code pointer stays checked" false (Elide.elide e si.slot))
    (Rsti_sti.Analysis.pointer_vars anal)

let tests =
  [
    QCheck_alcotest.to_alcotest prop_lint_deterministic;
    Alcotest.test_case "lint: catalog coverage (>=5 kinds, all victims)"
      `Quick test_catalog_coverage;
    Alcotest.test_case "lint: findings carry locations" `Quick
      test_lint_locations;
    Alcotest.test_case "lint: SARIF document well-formed" `Quick
      test_lint_sarif;
    Alcotest.test_case "lint: attack-surface rules are opt-in" `Quick
      test_attack_surface_opt_in;
    Alcotest.test_case "lint: scope rules fire on the leaky frame" `Quick
      test_lint_scope_rules_positive;
    Alcotest.test_case "lint: scope rules silent on downward pass" `Quick
      test_lint_scope_rules_negative;
    Alcotest.test_case "lint: dataflow findings SARIF round-trip" `Quick
      test_dataflow_findings_sarif_roundtrip;
    QCheck_alcotest.to_alcotest prop_elide_preserves_verdicts;
    QCheck_alcotest.to_alcotest prop_elide_pt_preserves_verdicts;
    Alcotest.test_case "context elision preserves substitution verdicts" `Quick
      test_elide_cs_preserves_verdicts;
    QCheck_alcotest.to_alcotest prop_elide_sound_monotone;
    Alcotest.test_case "elide: Table 1 still detected" `Slow
      test_table1_detected_under_elision;
    Alcotest.test_case "elide: Table 1 still detected (points-to)" `Slow
      test_table1_detected_under_pt_elision;
    Alcotest.test_case "elide: Table 1 still detected (context)" `Slow
      test_table1_detected_under_cs_elision;
    Alcotest.test_case "elide: sound-monotone on SPEC2006" `Quick
      test_monotone_on_spec2006;
    Alcotest.test_case "lint: window per nearest opener (globals)" `Quick
      test_window_nearest_opener;
    Alcotest.test_case "lint: window per nearest opener (struct)" `Quick
      test_window_nearest_opener_struct;
    Alcotest.test_case "elide: summary partitions candidates" `Quick
      test_summary_partition;
    Alcotest.test_case "elide: fires on lbm/namd" `Quick
      test_elision_fires_on_pointer_light_kernels;
    Alcotest.test_case "elide: code pointers kept" `Quick
      test_code_pointers_never_elided;
  ]
