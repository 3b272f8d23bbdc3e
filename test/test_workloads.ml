(* Static checks over the workload suites and the generator: every
   kernel parses, type-checks, lowers to verifiable IR, and has the
   pointer profile its archetype promises; generator configurations
   behave as documented. *)

module Workload = Rsti_workloads.Workload
module Generator = Rsti_workloads.Generator
module Analysis = Rsti_sti.Analysis
module Ir = Rsti_ir.Ir
module RT = Rsti_sti.Rsti_type

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

module Pipeline = Rsti_engine.Pipeline

let analyzed ~file src =
  Pipeline.analyze (Pipeline.compile (Pipeline.source ~file src))
let analyze_src ~file src = Pipeline.analysis (analyzed ~file src)

let all_workloads =
  Rsti_workloads.Spec2006.all @ Rsti_workloads.Spec2017.all
  @ Rsti_workloads.Nbench.all @ Rsti_workloads.Pytorch.all
  @ Rsti_workloads.Nginx.all

(* one static-pipeline test per workload *)
let per_workload_static_tests =
  List.map
    (fun (w : Workload.t) ->
      Alcotest.test_case
        (Printf.sprintf "%s/%s compiles and verifies"
           (Workload.suite_to_string w.suite) w.name)
        `Quick
        (fun () ->
          let a = analyzed ~file:(w.name ^ ".c") w.Workload.source in
          (match Rsti_ir.Verify.verify (Pipeline.analyzed_ir a) with
          | [] -> ()
          | { fn; msg } :: _ -> Alcotest.failf "verify %s: %s" fn msg);
          (* instrumented forms must verify too *)
          List.iter
            (fun mech ->
              match Rsti_ir.Verify.verify (Pipeline.instrumented_ir (Pipeline.instrument mech a)) with
              | [] -> ()
              | { fn; msg } :: _ ->
                  Alcotest.failf "verify %s under %s: %s" fn
                    (RT.mechanism_to_string mech) msg)
            RT.all_mechanisms))
    all_workloads

let test_workload_names_unique () =
  let names = List.map (fun (w : Workload.t) -> w.name) all_workloads in
  checki "no duplicate names" (List.length names)
    (List.length (List.sort_uniq compare names))

let test_suite_sizes_match_paper () =
  checki "18 SPEC2006 benchmarks" 18 (List.length Rsti_workloads.Spec2006.all);
  checki "23 SPEC2017 benchmarks" 23 (List.length Rsti_workloads.Spec2017.all);
  checki "10 nbench kernels" 10 (List.length Rsti_workloads.Nbench.all);
  checki "8 PyTorch benchmarks" 8 (List.length Rsti_workloads.Pytorch.all)

let test_archetype_pointer_profiles () =
  (* pointer-chasing kernels must have pointer slots; numeric kernels
     (before population augmentation) must not *)
  let has_pointer_vars name source =
    Analysis.pointer_vars (analyze_src ~file:(name ^ ".c") source) <> []
  in
  let find name =
    List.find (fun (w : Workload.t) -> w.name = name) all_workloads
  in
  List.iter
    (fun n -> checkb (n ^ " has pointers") true (has_pointer_vars n (find n).source))
    [ "perlbench"; "mcf"; "omnetpp"; "povray"; "541.leela_r"; "nginx" ];
  List.iter
    (fun n ->
      checkb (n ^ " kernel itself is pointer-free") false
        (has_pointer_vars n (find n).source))
    [ "milc"; "bitfield"; "fourier" ];
  (* lbm/namd carry grid/coordinate pointers (the real kernels' idiom),
     but every one is provably safe for the static checker to elide *)
  List.iter
    (fun n ->
      let w = find n in
      let a = analyzed ~file:(n ^ ".c") w.Workload.source in
      let m = Pipeline.analyzed_ir a and anal = Pipeline.analysis a in
      let e = Rsti_staticcheck.Elide.analyze anal m in
      let s = Rsti_staticcheck.Elide.summary e in
      checkb (n ^ " has elidable pointer slots") true
        Rsti_staticcheck.Elide.(s.candidates > 0);
      checki (n ^ " pointer slots all provably safe")
        Rsti_staticcheck.Elide.(s.candidates)
        Rsti_staticcheck.Elide.(s.safe))
    [ "lbm"; "namd" ]

let test_spec2006_population_attached () =
  List.iter
    (fun (w : Workload.t) ->
      checkb (w.name ^ " carries analysis population") true
        (String.length w.Workload.analysis_extra > 0))
    Rsti_workloads.Spec2006.all

let test_population_scales_with_paper_nt () =
  let stats name =
    let w = List.find (fun (w : Workload.t) -> w.name = name) Rsti_workloads.Spec2006.all in
    Analysis.stats (Rsti_workloads.Run.analyze_workload w)
  in
  let big = stats "xalancbmk" and small = stats "libquantum" in
  checkb "xalancbmk >> libquantum (NT)" true (big.nt > 20 * small.nt);
  checkb "xalancbmk >> libquantum (NV)" true (big.nv > 20 * small.nv)

(* Every Table 3 row, pinned: a change to the flow components, the STC
   classes or the grouping moves one of these figures. *)
let table3_rows =
  (* BM, NT, RT/STC, RT/STWC, NV, ECV/STC, ECV/STWC, ECT/STC, ECT/STWC *)
  [
    ("perlbench", [ 44; 73; 81; 123; 7; 5; 9; 1 ]);
    ("bzip2", [ 7; 12; 12; 17; 4; 4; 1; 1 ]);
    ("mcf", [ 7; 12; 12; 22; 5; 5; 3; 1 ]);
    ("milc", [ 13; 23; 23; 31; 6; 6; 1; 1 ]);
    ("namd", [ 9; 15; 16; 27; 10; 10; 2; 1 ]);
    ("gobmk", [ 32; 56; 61; 87; 5; 5; 6; 1 ]);
    ("dealII", [ 629; 1139; 1240; 1715; 36; 9; 67; 1 ]);
    ("soplex", [ 37; 63; 66; 97; 8; 7; 6; 1 ]);
    ("povray", [ 74; 128; 138; 193; 5; 5; 9; 1 ]);
    ("hmmer", [ 23; 43; 45; 62; 7; 5; 3; 1 ]);
    ("libquantum", [ 5; 9; 9; 11; 2; 2; 1; 1 ]);
    ("sjeng", [ 7; 13; 13; 16; 3; 3; 1; 1 ]);
    ("h264ref", [ 30; 53; 54; 77; 6; 6; 2; 1 ]);
    ("lbm", [ 6; 12; 12; 19; 7; 7; 1; 1 ]);
    ("omnetpp", [ 64; 111; 119; 177; 7; 6; 9; 1 ]);
    ("astar", [ 11; 16; 17; 26; 7; 6; 3; 1 ]);
    ("sphinx3", [ 24; 42; 45; 62; 6; 5; 4; 1 ]);
    ("xalancbmk", [ 636; 1159; 1236; 1738; 26; 9; 53; 1 ]);
  ]

let test_table3_rows_pinned () =
  let row (w : Workload.t) =
    let s = Analysis.stats (Rsti_workloads.Run.analyze_workload w) in
    ( w.name,
      [ s.nt; s.rt_stc; s.rt_stwc; s.nv; s.largest_ecv_stc; s.largest_ecv_stwc;
        s.largest_ect_stc; s.largest_ect_stwc ] )
  in
  Alcotest.(check (list (pair string (list int))))
    "Table 3" table3_rows
    (List.map row Rsti_workloads.Spec2006.all)

(* ----------------------------- generator ---------------------------- *)

let test_generator_deterministic () =
  let a = Generator.generate ~seed:5L () in
  let b = Generator.generate ~seed:5L () in
  Alcotest.(check string) "same seed, same program" a b;
  checkb "different seed differs" true (a <> Generator.generate ~seed:6L ())

let test_generator_no_main_mode () =
  let config = { Generator.default with emit_main = false; prefix = "q_" } in
  let src = Generator.generate ~config ~seed:3L () in
  let m = Pipeline.(ir (compile (source ~file:"g.c" src))) in
  checkb "no main emitted" true (Ir.find_func m "main" = None);
  checkb "prefixed workers present" true (Ir.find_func m "q_work0" <> None)

let test_generator_pp_rates () =
  let config =
    { Generator.default with pp_typed_rate = 1.0; n_funcs = 6; emit_main = false }
  in
  let src = Generator.generate ~config ~seed:11L () in
  let anal = analyze_src ~file:"g.c" src in
  checkb "pp sites generated" true ((Analysis.pp_census anal).pp_total_sites > 0)

let test_generator_zero_pp_by_default () =
  let src = Generator.generate ~seed:13L () in
  let anal = analyze_src ~file:"g.c" src in
  checki "no pp sites by default" 0 (Analysis.pp_census anal).pp_total_sites

let test_generator_cast_bias_extremes () =
  (* cast_bias = 1.0 guarantees casts whenever a same-typed callee
     exists; 0.0 yields none beyond the malloc casts *)
  let gen bias =
    let config =
      { Generator.default with cast_bias = bias; n_funcs = 8; n_structs = 1 }
    in
    let src = Generator.generate ~config ~seed:21L () in
    let anal = analyze_src ~file:"g.c" src in
    List.length
      (List.filter (fun (_, _, to_) -> to_ = "void*") (Analysis.casts anal))
  in
  checkb "bias drives void* casts" true (gen 1.0 > gen 0.0)

(* Every committed perfbench simulate row (60 kernels x the baseline,
   STWC, STC, STL and PARTS), priced from one uninstrumented run of its
   kernel at the default prices: exit, output digest, instructions,
   cycles and every PAC count must equal the row. perfbench executes the
   same 300 rows. *)
let test_simulate_rows_priced () =
  let module Interp = Rsti_machine.Interp in
  let module Cost = Rsti_machine.Cost in
  let rows = Hashtbl.create 300 in
  In_channel.with_open_text "../perfbench/expected/simulate.tsv" In_channel.input_all
  |> String.split_on_char '\n'
  |> List.iter (fun line ->
         match String.split_on_char '\t' line with
         | [ key; row ] when line.[0] <> '#' -> Hashtbl.replace rows key row
         | _ -> ());
  checki "committed rows" 300 (Hashtbl.length rows);
  let priced = ref 0 in
  List.iter
    (fun (w : Workload.t) ->
      let a = analyzed ~file:(w.name ^ ".c") w.source in
      let base = Interp.run (Interp.create (Pipeline.analyzed_ir a)) in
      List.iter
        (fun (config, mech) ->
          let modul, costs =
            match mech with
            | None -> (Pipeline.analyzed_ir a, Cost.default)
            | Some mech ->
                ( Pipeline.instrumented_ir (Pipeline.instrument mech a),
                  if mech = RT.Parts then { Cost.parts_codegen with pac = Cost.default.pac }
                  else Cost.default )
          in
          let o = Interp.price ~costs modul base in
          let c = o.Interp.counts in
          let key = w.name ^ "/" ^ config in
          Alcotest.(check (option string))
            key (Hashtbl.find_opt rows key)
            (Some
               (Printf.sprintf "%s %s %d %d %d %d %d %d"
                  (match o.Interp.status with
                  | Interp.Exited n -> Int64.to_string n
                  | Interp.Trapped t -> "trap:" ^ Interp.trap_to_string t)
                  (Digest.to_hex (Digest.string o.Interp.output))
                  c.instrs o.Interp.cycles c.pac_signs c.pac_auths c.pac_strips c.pp_calls));
          incr priced)
        [
          ("nop", None); ("stwc", Some RT.Stwc); ("stc", Some RT.Stc); ("stl", Some RT.Stl);
          ("parts", Some RT.Parts);
        ])
    all_workloads;
  checki "rows priced" 300 !priced

(* Seeded mutants of the kernels and the catalog victims (a truncation,
   a deletion of 1-8 characters, or one token swapped for another) end
   in a typed frontend error, or compile, instrument under STWC, STC and
   STL, pass the validator and run their STWC build on the machine: no
   other exception escapes. *)
let test_frontend_mutants () =
  let module Interp = Rsti_machine.Interp in
  let module Minic = Rsti_minic in
  let sources =
    Array.of_list
      (List.map (fun (w : Workload.t) -> w.source) all_workloads
      @ List.map (fun (sc : Rsti_attacks.Scenario.t) -> sc.program) Rsti_attacks.Catalog.all)
  in
  checki "sources" 73 (Array.length sources);
  let vocab =
    [| "int"; "long"; "char"; "void"; "struct"; "return"; "if"; "else"; "while"; "for";
       "*"; "&"; "("; ")"; "{"; "}"; "["; "]"; ";"; ","; "="; "=="; "+"; "-"; "->"; ".";
       "0"; "1" |]
  in
  let rng = Rsti_util.Splitmix.create 42L in
  let mutate src =
    let n = String.length src in
    let at = Rsti_util.Splitmix.int rng n in
    match Rsti_util.Splitmix.int rng 3 with
    | 0 -> String.sub src 0 at
    | 1 ->
        let len = min (n - at) (Rsti_util.Splitmix.int_in rng 1 8) in
        String.sub src 0 at ^ String.sub src (at + len) (n - at - len)
    | _ -> (
        (* the first vocabulary token at or after [at], swapped *)
        let tok = vocab.(Rsti_util.Splitmix.int rng (Array.length vocab)) in
        let rec find i =
          if i >= n then None
          else
            match
              Array.find_opt
                (fun v -> i + String.length v <= n && String.sub src i (String.length v) = v)
                vocab
            with
            | Some v -> Some (i, v)
            | None -> find (i + 1)
        in
        match find at with
        | Some (i, v) ->
            String.sub src 0 i ^ tok ^ String.sub src (i + String.length v) (n - i - String.length v)
        | None -> src)
  in
  let config = { Pipeline.default with cache = false } in
  let typed = ref 0 and ran = ref 0 in
  for k = 0 to 299 do
    let src = mutate sources.(k mod Array.length sources) in
    let name = Printf.sprintf "mutant %d" k in
    match Pipeline.compile ~config (Pipeline.source ~file:"mutant.c" src) with
    | exception (Minic.Lexer.Error _ | Minic.Parser.Error _ | Minic.Typecheck.Error _) ->
        incr typed
    | c ->
        let a = Pipeline.analyze ~config c in
        List.iter
          (fun mech ->
            let i = Pipeline.instrument ~config mech a in
            checkb (name ^ ": validates") true
              (Rsti_dataflow.Validate.ok (Pipeline.validation i));
            if mech = RT.Stwc then begin
              let r = Pipeline.result i in
              ignore
                (Interp.run ~step_limit:2_000_000
                   (Interp.create ~pp_table:r.Rsti_rsti.Instrument.pp_table
                      r.Rsti_rsti.Instrument.modul));
              incr ran
            end)
          [ RT.Stwc; RT.Stc; RT.Stl ]
  done;
  checkb "some mutants raise a typed error" true (!typed > 0);
  checkb "some mutants run" true (!ran > 0)

let tests =
  per_workload_static_tests
  @ [
      Alcotest.test_case "workload names unique" `Quick test_workload_names_unique;
      Alcotest.test_case "suite sizes match paper" `Quick test_suite_sizes_match_paper;
      Alcotest.test_case "archetype pointer profiles" `Quick test_archetype_pointer_profiles;
      Alcotest.test_case "spec2006 population attached" `Quick test_spec2006_population_attached;
      Alcotest.test_case "population scales with paper NT" `Slow test_population_scales_with_paper_nt;
      Alcotest.test_case "table3 rows pinned" `Quick test_table3_rows_pinned;
      Alcotest.test_case "generator deterministic" `Quick test_generator_deterministic;
      Alcotest.test_case "generator no-main mode" `Quick test_generator_no_main_mode;
      Alcotest.test_case "generator pp rates" `Quick test_generator_pp_rates;
      Alcotest.test_case "generator zero pp default" `Quick test_generator_zero_pp_by_default;
      Alcotest.test_case "generator cast bias" `Quick test_generator_cast_bias_extremes;
      Alcotest.test_case "simulate rows priced from one run" `Quick test_simulate_rows_priced;
      Alcotest.test_case "frontend mutants: typed error or run" `Quick test_frontend_mutants;
    ]
