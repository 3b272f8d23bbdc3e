(* The performance evaluation as a test suite: every workload of every
   suite must run identically under every mechanism (each measured row,
   priced from the uninstrumented run, is executed and must print what
   the baseline prints and cost what it was priced at), and the paper's
   qualitative results must hold: overhead orderings, pointer-heavy
   outliers, near-zero numeric kernels, PARTS losing to RSTI on nbench,
   and a positive overhead/instrumentation correlation. *)

module RT = Rsti_sti.Rsti_type
module Run = Rsti_workloads.Run
module Workload = Rsti_workloads.Workload
module Stats = Rsti_util.Stats
module Pipeline = Rsti_engine.Pipeline
module Interp = Rsti_machine.Interp

let checkb = Alcotest.(check bool)

let mechs = RT.all_mechanisms

(* Cache: measure each suite once for the whole test run. *)
let suite_cache : (string, Run.measurement list) Hashtbl.t = Hashtbl.create 8

let measurements name ws =
  match Hashtbl.find_opt suite_cache name with
  | Some ms -> ms
  | None ->
      let ms = Run.measure_suite ws mechs in
      Hashtbl.replace suite_cache name ms;
      ms

let suites =
  [
    ("spec2006", Rsti_workloads.Spec2006.all);
    ("spec2017", Rsti_workloads.Spec2017.all);
    ("nbench", Rsti_workloads.Nbench.all);
    ("pytorch", Rsti_workloads.Pytorch.all);
    ("nginx", Rsti_workloads.Nginx.all);
  ]

let overhead ms mech name =
  List.find_map
    (fun (m : Run.measurement) ->
      if m.mech = mech && m.workload.Workload.name = name then Some m.overhead_pct
      else None)
    ms

let geomean ms mech =
  Stats.geomean_overhead
    (List.filter_map
       (fun (m : Run.measurement) ->
         if m.mech = mech then Some m.overhead_pct else None)
       ms)

(* Executes [w]'s baseline and each row's build: every build exits as
   the baseline does and prints what it prints, the baseline costs the
   row's [base_cycles], and each build the row's cycles and counts and
   has the profile its priced row has. *)
let check_executed (w : Workload.t) ms =
  let a = Pipeline.analyze (Pipeline.compile (Pipeline.source ~file:(w.name ^ ".c") w.source)) in
  let base = Pipeline.run_baseline (Pipeline.compiled_of_analyzed a) in
  List.iter
    (fun (m : Run.measurement) ->
      let name what = Printf.sprintf "%s/%s: %s" w.name (RT.mechanism_to_string m.mech) what in
      Alcotest.(check int) (name "base cycles") base.Interp.cycles m.base_cycles;
      let i = Pipeline.instrument m.mech a in
      let o = Pipeline.run i in
      checkb (name "status") true (o.Interp.status = base.Interp.status);
      Alcotest.(check string) (name "output") base.Interp.output o.Interp.output;
      Alcotest.(check int) (name "cycles") o.Interp.cycles m.mech_cycles;
      List.iter
        (fun (field, get) -> Alcotest.(check int) (name field) (get o.Interp.counts) (get m.dyn))
        [
          ("instrs", fun (c : Interp.counts) -> c.instrs);
          ("loads", fun c -> c.loads);
          ("stores", fun c -> c.stores);
          ("pac_signs", fun c -> c.pac_signs);
          ("pac_auths", fun c -> c.pac_auths);
          ("pac_strips", fun c -> c.pac_strips);
          ("pp_calls", fun c -> c.pp_calls);
        ];
      checkb (name "sites") true
        (Interp.sites (Interp.price (Pipeline.instrumented_ir i) base) = Interp.sites o))
    ms

(* one test per workload: every mechanism's build, executed, behaves as
   the baseline and costs what it was priced at, with non-negative
   overhead *)
let per_workload_tests =
  List.concat_map
    (fun (suite, ws) ->
      List.map
        (fun (w : Workload.t) ->
          Alcotest.test_case
            (Printf.sprintf "%s/%s runs identically under all mechanisms" suite w.name)
            `Slow
            (fun () ->
              let ms = measurements suite ws in
              List.iter
                (fun mech ->
                  match overhead ms mech w.name with
                  | Some x -> checkb "overhead >= 0" true (x >= -0.001)
                  | None -> Alcotest.fail "missing measurement")
                mechs;
              check_executed w
                (List.filter (fun (m : Run.measurement) -> m.workload.name = w.name) ms)))
        ws)
    suites

let test_suite_orderings () =
  List.iter
    (fun (suite, ws) ->
      let ms = measurements suite ws in
      let stwc = geomean ms RT.Stwc in
      let stc = geomean ms RT.Stc in
      let stl = geomean ms RT.Stl in
      checkb (suite ^ ": STC <= STWC") true (stc <= stwc +. 0.05);
      checkb (suite ^ ": STWC <= STL") true (stwc <= stl +. 0.05))
    suites

let test_pointer_heavy_are_outliers () =
  let ms = measurements "spec2006" Rsti_workloads.Spec2006.all in
  let get name = Option.get (overhead ms RT.Stwc name) in
  (* the paper's pointer-heavy benchmarks must clearly exceed the numeric
     ones under every mechanism *)
  List.iter
    (fun heavy ->
      List.iter
        (fun light ->
          checkb
            (Printf.sprintf "%s > %s" heavy light)
            true
            (get heavy > get light +. 1.0))
        [ "lbm"; "milc"; "namd"; "hmmer" ])
    [ "perlbench"; "xalancbmk"; "omnetpp"; "mcf"; "povray" ]

let test_numeric_kernels_near_zero () =
  let ms = measurements "spec2006" Rsti_workloads.Spec2006.all in
  List.iter
    (fun name ->
      List.iter
        (fun mech ->
          let x = Option.get (overhead ms mech name) in
          checkb (Printf.sprintf "%s %s < 1%%" name (RT.mechanism_to_string mech)) true
            (x < 1.0))
        mechs)
    [ "lbm"; "milc"; "namd"; "libquantum"; "hmmer"; "sphinx3" ]

let test_stwc_stc_gap_on_cast_heavy () =
  let ms = measurements "spec2006" Rsti_workloads.Spec2006.all in
  (* perlbench/xalancbmk cast in hot loops: combining must pay off *)
  List.iter
    (fun name ->
      let stwc = Option.get (overhead ms RT.Stwc name) in
      let stc = Option.get (overhead ms RT.Stc name) in
      checkb (name ^ ": STC beats STWC") true (stc < stwc))
    [ "perlbench"; "xalancbmk" ]

let test_stl_costs_more_on_call_heavy () =
  let ms = measurements "spec2006" Rsti_workloads.Spec2006.all in
  List.iter
    (fun name ->
      let stwc = Option.get (overhead ms RT.Stwc name) in
      let stl = Option.get (overhead ms RT.Stl name) in
      checkb (name ^ ": STL > STWC") true (stl > stwc +. 1.0))
    [ "povray"; "mcf"; "omnetpp" ]

let test_parts_loses_on_nbench () =
  (* paper 6.3.2: PARTS 19.5% mean vs RSTI's ~1-3% on nbench *)
  let ms = Run.measure_suite Rsti_workloads.Nbench.all (mechs @ [ RT.Parts ]) in
  let mean mech =
    Stats.mean
      (List.filter_map
         (fun (m : Run.measurement) ->
           if m.mech = mech then Some m.overhead_pct else None)
         ms)
  in
  let parts = mean RT.Parts in
  List.iter
    (fun mech ->
      checkb
        (Printf.sprintf "PARTS >> %s on nbench" (RT.mechanism_to_string mech))
        true
        (parts > 3. *. mean mech +. 1.0))
    mechs;
  checkb "PARTS mean sizable" true (parts > 5.

  )

let test_correlation_positive () =
  (* paper 6.3.2: overhead correlates with instrumented load/stores *)
  let ms = measurements "spec2006" Rsti_workloads.Spec2006.all in
  List.iter
    (fun mech ->
      let per = List.filter (fun (m : Run.measurement) -> m.mech = mech) ms in
      let xs =
        List.map
          (fun (m : Run.measurement) ->
            float_of_int
              (m.dyn.Rsti_machine.Interp.pac_signs + m.dyn.Rsti_machine.Interp.pac_auths))
          per
      in
      let ys = List.map (fun (m : Run.measurement) -> m.overhead_pct) per in
      let r = Stats.pearson xs ys in
      (* the paper reports 0.75-0.8 with exceptions; we require a clearly
         positive correlation *)
      checkb
        (Printf.sprintf "%s: r > 0.35 (got %.2f)" (RT.mechanism_to_string mech) r)
        true (r > 0.35))
    mechs

let test_overall_geomeans_in_paper_ballpark () =
  (* shape, not absolute numbers: single digits for STWC/STC, STL higher *)
  let all =
    List.concat_map (fun (suite, ws) -> measurements suite ws) suites
  in
  let g mech = geomean all mech in
  let stwc = g RT.Stwc and stc = g RT.Stc and stl = g RT.Stl in
  checkb "STWC in (0.5%, 15%)" true (stwc > 0.5 && stwc < 15.);
  checkb "STC in (0.3%, 12%)" true (stc > 0.3 && stc < 12.);
  checkb "STL in (1%, 30%)" true (stl > 1. && stl < 30.);
  checkb "STC < STWC < STL" true (stc < stwc && stwc < stl)

let test_dynamic_counts_match_mechanism () =
  let ms = measurements "spec2006" Rsti_workloads.Spec2006.all in
  List.iter
    (fun (m : Run.measurement) ->
      if m.mech = RT.Stc then
        checkb "STC executes no resign pairs" true
          (m.static_counts.Rsti_rsti.Instrument.resigns = 0))
    ms

let test_fig9_rows_complete () =
  (* the Figure 9 reproduction has one row per SPEC2017 benchmark plus
     the aggregate rows *)
  let p =
    {
      Rsti_report.Perf.spec2006 = measurements "spec2006" Rsti_workloads.Spec2006.all;
      spec2017 = measurements "spec2017" Rsti_workloads.Spec2017.all;
      nbench = measurements "nbench" Rsti_workloads.Nbench.all;
      pytorch = measurements "pytorch" Rsti_workloads.Pytorch.all;
      nginx = measurements "nginx" Rsti_workloads.Nginx.all;
    }
  in
  let rows = Rsti_report.Figures.fig9_rows p in
  Alcotest.(check int) "23 benchmarks + 6 aggregates" 29 (List.length rows);
  List.iter
    (fun (_, per_mech) -> Alcotest.(check int) "3 mechanisms" 3 (List.length per_mech))
    rows

let test_table3_report_renders () =
  let s = Rsti_report.Figures.table3 () in
  checkb "mentions perlbench" true
    (let sub = "perlbench" in
     let n = String.length sub and m = String.length s in
     let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
     go 0)

let tests =
  per_workload_tests
  @ [
      Alcotest.test_case "geomean orderings per suite" `Slow test_suite_orderings;
      Alcotest.test_case "pointer-heavy outliers" `Slow test_pointer_heavy_are_outliers;
      Alcotest.test_case "numeric kernels ~0%" `Slow test_numeric_kernels_near_zero;
      Alcotest.test_case "STC beats STWC on cast-heavy" `Slow test_stwc_stc_gap_on_cast_heavy;
      Alcotest.test_case "STL premium on call-heavy" `Slow test_stl_costs_more_on_call_heavy;
      Alcotest.test_case "PARTS loses on nbench" `Slow test_parts_loses_on_nbench;
      Alcotest.test_case "overhead/pac-op correlation" `Slow test_correlation_positive;
      Alcotest.test_case "overall geomeans ballpark" `Slow test_overall_geomeans_in_paper_ballpark;
      Alcotest.test_case "STC never resigns" `Slow test_dynamic_counts_match_mechanism;
      Alcotest.test_case "fig9 rows complete" `Slow test_fig9_rows_complete;
      Alcotest.test_case "table3 renders" `Slow test_table3_report_renders;
    ]
