(* The report layer: every paper-reproduction section must render, carry
   the rows it promises, and state the verdicts the security suite
   already established. *)

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let count_lines s = List.length (String.split_on_char '\n' s)

let test_table1_report () =
  let s = Rsti_report.Security.table1 () in
  List.iter
    (fun sub -> checkb ("mentions " ^ sub) true (contains ~sub s))
    [ "NEWTON CsCFI"; "DOP ProFTPd"; "PittyPat"; "sig-CFI"; "STWC"; "STL" ];
  (* 13 scenario rows + header + separator + footer *)
  checkb "row count sane" true (count_lines s > 15);
  checkb "no failures reported" false (contains ~sub:"failed" s)

let test_table1_verdict_structure () =
  let rows = Rsti_report.Security.table1_verdicts () in
  checki "13 scenarios" 13 (List.length rows);
  List.iter
    (fun (_, base, per_mech) ->
      checkb "baseline owned" true (base = Rsti_attacks.Scenario.Attack_succeeded);
      checki "three mechanisms" 3 (List.length per_mech);
      List.iter
        (fun (_, v) -> checkb "detected" true (v = Rsti_attacks.Scenario.Detected))
        per_mech)
    rows

let test_table2_report () =
  let s = Rsti_report.Security.table2 () in
  List.iter
    (fun sub -> checkb ("mentions " ^ sub) true (contains ~sub s))
    [ "sub-same-rsti"; "mem-temporal-uaf"; "PARTS" ]

let test_table3_report () =
  let s = Rsti_report.Figures.table3 () in
  List.iter
    (fun sub -> checkb ("mentions " ^ sub) true (contains ~sub s))
    [ "perlbench"; "xalancbmk"; "ECV"; "ECT" ];
  checkb "at least 18 rows + frame" true (count_lines s > 22)

let test_pp_census_report () =
  let s = Rsti_report.Figures.pp_census () in
  checkb "has totals line" true (contains ~sub:"Total:" s);
  checkb "mentions type loss" true (contains ~sub:"type-loss" s)

let test_parts_report () =
  let s = Rsti_report.Figures.parts_comparison () in
  checkb "has mean row" true (contains ~sub:"mean" s);
  checkb "mentions PARTS" true (contains ~sub:"PARTS" s)

let test_ablation_merge_report () =
  let s = Rsti_report.Ablation.merge_effect () in
  checkb "has unmerged column" true (contains ~sub:"RT unmerged" s)

let test_ablation_stl_report () =
  let s = Rsti_report.Ablation.stl_argument_cost () in
  checkb "attributes to &p" true (contains ~sub:"&p" s)

let test_ablation_ce_report () =
  let s = Rsti_report.Ablation.ce_width () in
  checkb "within budget everywhere" false (contains ~sub:"NO" s)

let test_ablation_pac_width_report () =
  let s = Rsti_report.Ablation.pac_brute_force () in
  checkb "both layouts" true (contains ~sub:"TBI on" s && contains ~sub:"TBI off" s);
  (* the 7-bit acceptance rate must be visibly non-zero, the 15-bit ~0 *)
  checkb "7-bit rate printed" true (contains ~sub:"0.00781" s)

let test_backend_report () =
  let s = Rsti_report.Ablation.backend_comparison () in
  checkb "compares PAC and MAC" true
    (contains ~sub:"STWC via PAC" s && contains ~sub:"shadow MAC" s);
  checkb "numeric kernels filtered out" false (contains ~sub:"milc" s)

(* ------------------ committed bench documents ------------------- *)

(* The three documents [rstic report] writes, as committed, against the
   schemas DESIGN.md's "Bench documents" section lists field by field:
   every object's keys in order and every value's kind. *)
module Json = Rsti_util.Json

type kind =
  | Is of string  (** this string *)
  | Int
  | Num  (** an [Int] or a [Float]: whole floats print without a fraction *)
  | Str
  | Bool
  | Or_null of kind
  | Obj of (string * kind) list  (** exactly these keys, in this order *)
  | List of kind
  | Sorted of kind  (** an object with sorted keys, every value of [kind] *)

let rec check_kind path kind (v : Json.t) =
  match (kind, v) with
  | Is s, Json.Str s' when s = s' -> ()
  | Int, Json.Int _ | Num, (Json.Int _ | Json.Float _) | Str, Json.Str _ -> ()
  | Bool, Json.Bool _ | Or_null _, Json.Null -> ()
  | Or_null k, v -> check_kind path k v
  | Obj fields, Json.Obj kvs ->
      Alcotest.(check (list string))
        (path ^ " keys") (List.map fst fields) (List.map fst kvs);
      List.iter2 (fun (k, kind) (_, v) -> check_kind (path ^ "." ^ k) kind v)
        fields kvs
  | List k, Json.List vs ->
      List.iteri (fun i v -> check_kind (Printf.sprintf "%s[%d]" path i) k v) vs
  | Sorted k, Json.Obj kvs ->
      let names = List.map fst kvs in
      Alcotest.(check (list string))
        (path ^ " keys sorted") (List.sort compare names) names;
      List.iter (fun (n, v) -> check_kind (path ^ "." ^ n) k v) kvs
  | _ -> Alcotest.failf "%s: unexpected %s" path (Json.to_string ~indent:false v)

let ints names = List.map (fun n -> (n, Int)) names

let quantiles =
  List.map (fun n -> (n, Or_null Num)) [ "min"; "max"; "p50"; "p90"; "p99" ]

(* a mechanism's runtime and static coverage counts *)
let mech_runtime =
  ints [ "runs"; "detected"; "incidents"; "mapped"; "replays"; "raw_overwrites" ]

let mech_static =
  ints
    [ "static_replay_edges"; "static_feasible_edges"; "replayable_total";
      "replayable_exercised"; "nonedges_checked" ]

let fig9_schema =
  let latency = Obj (("count", Int) :: quantiles) in
  Obj
    [
      ("schema", Is "rsti-bench-fig9/1");
      ("jobs", Int);
      ("wall_clock_s", Num);
      ("sections", List (Obj [ ("name", Str); ("seconds", Num) ]));
      ("cache", Obj (ints [ "hits"; "misses"; "duplicated" ]));
      ( "elide-precision-cs",
        List
          (Obj
             ((("name", Str)
              :: ints
                   [ "candidates"; "safe_syntactic"; "safe_points_to";
                     "safe_cloning_k2" ])
             @ [ ("seconds_points_to", Num); ("seconds_cloning_k2", Num) ])) );
      ( "attack-surface",
        Obj
          [
            ( "rows",
              List
                (Obj
                   ([ ("workload", Str); ("mech", Str); ("mode", Str) ]
                   @ ints
                       [ "candidates"; "classes"; "singletons"; "largest_class";
                         "replay_edges"; "feasible_edges" ])) );
            ("monotone_refinement", Bool);
            ("crossval", Obj (ints [ "checks"; "disagreements"; "skipped" ]));
          ] );
      ( "detection-latency",
        Obj
          (ints [ "flight"; "detected"; "incidents"; "unmapped"; "missing" ]
          @ [
              ("verdict", Str);
              ( "mechanisms",
                List
                  (Obj
                     ((("mech", Str) :: mech_runtime)
                     @ [ ("latency_cycles", latency); ("latency_instrs", latency) ]
                     @ mech_static)) );
            ]) );
      ( "benchmarks",
        List
          (Obj
             ([ ("name", Str); ("suite", Str); ("mech", Str) ]
             @ ints [ "base_cycles"; "mech_cycles" ]
             @ [ ("overhead_pct", Num) ])) );
      ("geomeans", List (Obj [ ("suite", Str); ("mech", Str); ("overhead_pct", Num) ]));
    ]

let metrics_schema =
  Obj
    [
      ("schema", Is "rsti-metrics/1");
      ("counters", Sorted Int);
      ("gauges", Sorted Int);
      ("histograms", Sorted (Obj (("count", Int) :: ("sum", Num) :: quantiles)));
    ]

let event_schema cat name =
  let head = [ ("cat", Str); ("name", Str) ] in
  match (cat, name) with
  | "coverage", "summary" ->
      Obj
        (head
        @ ints [ "flight"; "runs"; "detected"; "incidents"; "unmapped"; "missing" ]
        @ [ ("verdict", Str) ])
  | "coverage", _ -> Obj (head @ (("mech", Str) :: mech_runtime) @ mech_static)
  | "incident", _ ->
      let signer =
        Obj
          ([ ("kind", Str); ("func", Str); ("line", Int); ("key", Str);
             ("static_modifier", Str); ("modifier", Str) ]
          @ ints [ "cycle"; "instr" ])
      in
      Obj
        (head
        @ [ ("table", Str); ("scenario", Str); ("mech", Str); ("func", Str);
            ("line", Int); ("key", Str); ("expected_signer", Str);
            ("modifier", Str); ("ptr", Str); ("observed_signer", Or_null signer) ]
        @ ints [ "window"; "cycle"; "instr" ]
        @ [ ("latency_cycles", Or_null Int); ("latency_instrs", Or_null Int);
            ("class", Or_null Str); ("classes", Int); ("mapped", Bool) ])
  | _ -> Alcotest.failf "event %s/%s: unknown category" cat name

let parse path text =
  match Json.of_string text with
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: %s" path e

let read path = In_channel.with_open_bin path In_channel.input_all

let member k = function
  | Json.Obj kvs -> List.assoc k kvs
  | _ -> Alcotest.failf "no object around %s" k

let str k o = match member k o with Json.Str s -> s | _ -> ""

(* Paths are relative to the test's build directory, where dune copies
   the committed files (the test's [deps]). *)
let test_bench_documents () =
  let fig9 = parse "BENCH_fig9.json" (read "../BENCH_fig9.json") in
  check_kind "fig9" fig9_schema fig9;
  Alcotest.(check (list string))
    "one timing per section, in table order"
    (List.map (fun (s : Rsti_report.Sections.t) -> s.name)
       Rsti_report.Sections.all)
    (match member "sections" fig9 with
    | Json.List l -> List.map (str "name") l
    | _ -> []);
  check_kind "metrics" metrics_schema
    (parse "BENCH_metrics.json" (read "../BENCH_metrics.json"));
  let text = read "../BENCH_events.jsonl" in
  checkb "events end with a newline" true (String.ends_with ~suffix:"\n" text);
  match String.split_on_char '\n' (String.sub text 0 (String.length text - 1)) with
  | [] -> Alcotest.fail "empty event log"
  | header :: lines ->
      let header = parse "events header" header in
      check_kind "events header"
        (Obj [ ("schema", Is "rsti-events/1"); ("events", Int) ])
        header;
      checkb "header counts the lines" true
        (member "events" header = Json.Int (List.length lines));
      checkb "lines sorted" true (List.sort compare lines = lines);
      List.iteri
        (fun i line ->
          let ev = parse (Printf.sprintf "event %d" i) line in
          check_kind (Printf.sprintf "event %d" i)
            (event_schema (str "cat" ev) (str "name" ev)) ev)
        lines

let tests =
  [
    Alcotest.test_case "table1 renders" `Slow test_table1_report;
    Alcotest.test_case "bench documents match their schemas" `Quick
      test_bench_documents;
    Alcotest.test_case "table1 verdicts" `Slow test_table1_verdict_structure;
    Alcotest.test_case "table2 renders" `Slow test_table2_report;
    Alcotest.test_case "table3 renders" `Slow test_table3_report;
    Alcotest.test_case "pp census renders" `Slow test_pp_census_report;
    Alcotest.test_case "parts comparison renders" `Slow test_parts_report;
    Alcotest.test_case "ablation: merge renders" `Slow test_ablation_merge_report;
    Alcotest.test_case "ablation: stl renders" `Slow test_ablation_stl_report;
    Alcotest.test_case "ablation: ce renders" `Slow test_ablation_ce_report;
    Alcotest.test_case "ablation: pac width renders" `Quick test_ablation_pac_width_report;
    Alcotest.test_case "extension: backend renders" `Slow test_backend_report;
  ]
