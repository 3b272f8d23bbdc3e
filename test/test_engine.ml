(* Tests for the experiment engine: the domain-pool scheduler (every
   task claimed exactly once, results in input order, for any job
   count), the content-keyed artifact cache (a hit returns exactly what
   a fresh computation would), and the headline determinism guarantee —
   figure and table renderings are byte-identical whether the suite runs
   on one domain or four. *)

module Scheduler = Rsti_engine.Scheduler
module Cache = Rsti_engine.Cache
module Pipeline = Rsti_engine.Pipeline
module Run = Rsti_workloads.Run
module Workload = Rsti_workloads.Workload
module Perf = Rsti_report.Perf
module Figures = Rsti_report.Figures
module RT = Rsti_sti.Rsti_type
module Ir = Rsti_ir.Ir
module Points_to = Rsti_dataflow.Points_to
module Scope_escape = Rsti_dataflow.Scope_escape
module Validate = Rsti_dataflow.Validate
module Equiv = Rsti_dataflow.Equiv
module Elide = Rsti_staticcheck.Elide

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

(* ----------------------------- scheduler ---------------------------- *)

(* Every task runs exactly once and the result order is the input order,
   for any job count — the invariant all merge determinism rests on. *)
let prop_scheduler_exactly_once =
  QCheck.Test.make ~name:"scheduler: each task exactly once, in order" ~count:30
    QCheck.(pair (int_range 0 40) (int_range 1 4))
    (fun (n, jobs) ->
      let xs = List.init n (fun i -> i) in
      let runs = Array.make (max n 1) 0 in
      let lock = Mutex.create () in
      let ys =
        Scheduler.map ~jobs
          (fun i ->
            Mutex.lock lock;
            runs.(i) <- runs.(i) + 1;
            Mutex.unlock lock;
            i * i)
          xs
      in
      ys = List.map (fun i -> i * i) xs
      && List.for_all (fun i -> runs.(i) = 1) xs)

(* The always-on scheduler counters see every task claimed exactly once
   under a parallel fan-out: the task count grows by exactly n, and the
   own-claim/steal split partitions it. *)
let test_scheduler_stats_exactly_once () =
  let before = Scheduler.stats () in
  let n = 37 in
  ignore (Scheduler.map ~jobs:4 (fun i -> i * 2) (List.init n (fun i -> i)));
  let after = Scheduler.stats () in
  checki "one fan-out recorded" 1 (after.Scheduler.fanouts - before.Scheduler.fanouts);
  checki "every task counted" n (after.Scheduler.tasks - before.Scheduler.tasks);
  checki "own claims + steals = tasks" n
    (after.Scheduler.own_claims + after.Scheduler.steals
    - (before.Scheduler.own_claims + before.Scheduler.steals))

let test_scheduler_exception_propagates () =
  checkb "task exception re-raised" true
    (try
       ignore
         (Scheduler.map ~jobs:3
            (fun i -> if i = 5 then failwith "boom" else i)
            (List.init 10 (fun i -> i)));
       false
     with Failure msg -> msg = "boom")

let test_scheduler_nested_map_serializes () =
  (* fan-out inside a pool worker must not spawn domains over domains,
     and must still return correct results *)
  let grid =
    Scheduler.map ~jobs:4
      (fun i -> Scheduler.map ~jobs:4 (fun j -> (10 * i) + j) [ 0; 1; 2 ])
      [ 0; 1; 2; 3 ]
  in
  checkb "nested results correct" true
    (grid = List.init 4 (fun i -> List.init 3 (fun j -> (10 * i) + j)))

let test_jobs_resolution_override () =
  Scheduler.set_default_jobs 3;
  checki "override wins" 3 (Scheduler.default_jobs ());
  Scheduler.set_default_jobs 0;
  checki "override clamped to 1" 1 (Scheduler.default_jobs ());
  Scheduler.clear_default_jobs ();
  checkb "cleared falls back to a positive count" true
    (Scheduler.default_jobs () >= 1)

(* ------------------------------- cache ------------------------------ *)

(* Every key variant of every stage, on one kernel. *)
let pt_modes = Points_to.[ Insensitive; Cloning 1; Cloning 2 ]

let elide_modes =
  Elide.[ Off; Syntactic; With_points_to; With_context 1; With_context 2 ]

let mechs = RT.[ Nop; Stwc; Stc; Stl; Parts ]

let surface_modes =
  [ None; Some Points_to.Insensitive; Some (Points_to.Cloning 2) ]

(* Every slot a load or store of [m] touches, in a fixed order. *)
let slots (m : Ir.modul) =
  List.sort_uniq compare
    (List.concat_map
       (fun (f : Ir.func) ->
         List.concat_map
           (fun (b : Ir.block) ->
             List.filter_map
               (fun (ins : Ir.instr) ->
                 match ins.Ir.i with
                 | Ir.Load { slot; _ } | Ir.Store { slot; _ } -> Some slot
                 | _ -> None)
               b.Ir.instrs)
           (Array.to_list f.Ir.blocks))
       m.Ir.m_funcs)

let ints l = String.concat " " (List.map string_of_int l)

(* One printable summary per stage and key variant, in a fixed order. *)
let sweep ~cache (w : Workload.t) =
  let config = { Pipeline.default with Pipeline.cache } in
  let c =
    Pipeline.compile ~config
      (Pipeline.source ~file:(w.Workload.name ^ ".c") w.Workload.source)
  in
  let a = Pipeline.analyze ~config c in
  let pt_mode = Points_to.mode_to_string and mech_s = RT.mechanism_to_string in
  let points_to =
    List.map
      (fun mode ->
        let s = Points_to.stats (Pipeline.points_to ~config ~mode c) in
        ( "points_to " ^ pt_mode mode,
          ints
            Points_to.
              [ s.nodes; s.objects; s.iterations; s.heap_objects;
                s.escaped_objects; s.clones ] ))
      pt_modes
  in
  let scope =
    List.map
      (fun mode ->
        let sc = Pipeline.scope_escape ~config ~mode c in
        ( "scope_escape " ^ pt_mode mode,
          String.concat "; "
            (List.map
               (fun (e : Scope_escape.escape) ->
                 Printf.sprintf "%s/%s:%d %s" e.local_name e.func e.line
                   (Scope_escape.sink_to_string e.sink))
               (Scope_escape.escapes sc)) ))
      pt_modes
  in
  let elide =
    List.map
      (fun mode ->
        let p = Pipeline.elide_pred ~config ~mode a in
        ( "elide_pred " ^ Elide.mode_to_string mode,
          String.concat ""
            (List.map
               (fun s -> if p s then "1" else "0")
               (slots (Pipeline.ir c))) ))
      elide_modes
  in
  let instrument =
    List.concat_map
      (fun mech ->
        List.concat_map
          (fun elision ->
            let config = { config with Pipeline.elision } in
            let i = Pipeline.instrument ~config mech a in
            let k = Pipeline.counts i in
            let tag = mech_s mech ^ "/" ^ Elide.mode_to_string elision in
            [
              ( "instrument " ^ tag,
                ints
                  Rsti_rsti.Instrument.
                    [ k.signs; k.auths; k.resigns; k.strips; k.pp_ops;
                      k.elided ] );
              ( "validation " ^ tag,
                Validate.report_to_string (Pipeline.validation i) );
            ])
          elide_modes)
      mechs
  in
  let surface =
    List.concat_map
      (fun mech ->
        List.map
          (fun mode ->
            let m =
              (Pipeline.attack_surface ~config ?mode mech a).Equiv.r_metrics
            in
            ( Printf.sprintf "attack_surface %s/%s" (mech_s mech)
                (Option.fold ~none:"oracle" ~some:pt_mode mode),
              ints
                Equiv.
                  [ m.m_candidates; m.m_classes; m.m_singletons; m.m_largest;
                    m.m_replay_edges; m.m_feasible_edges ] ))
          surface_modes)
      mechs
  in
  List.concat [ points_to; scope; elide; instrument; surface ]

(* Misses of one sweep from an empty cache: one per distinct key. A key
   that dropped its k or its mode would merge two artifacts and miss too
   rarely. Parts and Nop force elision Off, so they have one instrument
   key each. *)
let sweep_misses =
  [
    ("compile", 1); ("analysis", 1);
    ("points_to", 1); ("points_to_cs", 2); ("scope_escape", 3);
    ("elide", 1); ("elide_pt", 1); ("elide_ctx", 2);
    ("instrument", 17); ("outcome", 0); ("attack_surface", 15);
  ]

(* A cached artifact must be indistinguishable from a fresh computation:
   every stage summary is the same whether the sweep runs uncached, fills
   the cache, or is served from it; filling misses once per key, and
   serving misses never. The perlbench kernel has a scope escape, safe
   sets that grow with each elision precision, and non-empty classes. *)
let test_cache_hit_identical () =
  let w = List.hd Rsti_workloads.Spec2006.all in
  Cache.clear ();
  let fresh = sweep ~cache:false w in
  let filling = sweep ~cache:true w in
  let filled = Cache.stage_stats () in
  let served = sweep ~cache:true w in
  List.iter
    (fun (name, n) ->
      checki (name ^ " misses = distinct keys") n
        (List.assoc name filled).Cache.misses)
    sweep_misses;
  checki "second sweep adds no miss"
    (List.fold_left (fun acc (_, n) -> acc + n) 0 sweep_misses)
    (Cache.stats ()).Cache.misses;
  List.iter2
    (fun (label, f) (_, c) -> checks ("uncached = filling: " ^ label) f c)
    fresh filling;
  List.iter2
    (fun (label, f) (_, c) -> checks ("filling = served: " ^ label) f c)
    filling served

(* Run keys hold the whole cost record: a run cached at one PA price is
   never served at another. At every price the cached cycle totals equal
   a fresh simulation's, and so do the totals re-priced from the one
   baseline run's segment visits ({!Rsti_machine.Interp.price}) — for
   instrumented runs, baselines, and the shadow-MAC backend alike. *)
let test_run_reprice_matches_simulation () =
  Cache.clear ();
  let w = List.hd Rsti_workloads.Spec2006.all in
  let src = Pipeline.source ~file:"reprice.c" w.Workload.source in
  let a = Pipeline.analyze (Pipeline.compile src) in
  let i = Pipeline.instrument RT.Stwc a in
  let c = Pipeline.compiled_of_analyzed a in
  let config pac =
    { Pipeline.default with
      Pipeline.costs = Rsti_machine.Cost.(with_pac default pac) }
  in
  let uncached pac = { (config pac) with Pipeline.cache = false } in
  (* prime the cache at the default cost, then sweep *)
  ignore (Pipeline.run ~config:(config 7) i);
  let base = Pipeline.run_baseline ~config:(config 7) c in
  List.iter
    (fun pac ->
      let costs = (config pac).Pipeline.costs in
      let repriced backend modul =
        (Rsti_machine.Interp.price ~costs ~backend modul base).Rsti_machine.Interp.cycles
      in
      let cached = Pipeline.run ~config:(config pac) i in
      let fresh = Pipeline.run ~config:(uncached pac) i in
      checki
        (Printf.sprintf "instrumented cycles at pac=%d" pac)
        fresh.Rsti_machine.Interp.cycles cached.Rsti_machine.Interp.cycles;
      checki
        (Printf.sprintf "instrumented cycles re-priced at pac=%d" pac)
        fresh.Rsti_machine.Interp.cycles
        (repriced `Pac (Pipeline.instrumented_ir i));
      let cached_b = Pipeline.run_baseline ~config:(config pac) c in
      let fresh_b = Pipeline.run_baseline ~config:(uncached pac) c in
      checki
        (Printf.sprintf "baseline cycles at pac=%d" pac)
        fresh_b.Rsti_machine.Interp.cycles cached_b.Rsti_machine.Interp.cycles;
      checki
        (Printf.sprintf "baseline cycles re-priced at pac=%d" pac)
        fresh_b.Rsti_machine.Interp.cycles (repriced `Pac (Pipeline.ir c));
      let cached_s = Pipeline.run ~config:(config pac) ~backend:`Shadow_mac i in
      let fresh_s = Pipeline.run ~config:(uncached pac) ~backend:`Shadow_mac i in
      checki
        (Printf.sprintf "shadow-MAC cycles at pac=%d" pac)
        fresh_s.Rsti_machine.Interp.cycles cached_s.Rsti_machine.Interp.cycles;
      checki
        (Printf.sprintf "shadow-MAC cycles re-priced at pac=%d" pac)
        fresh_s.Rsti_machine.Interp.cycles
        (repriced `Shadow_mac (Pipeline.instrumented_ir i)))
    [ 3; 5; 9; 12 ]

(* [cache = false] computes every stage fresh and never touches a table:
   the whole chain, run uncached, counts no hit and no miss anywhere. *)
let test_cache_disabled_bypasses_table () =
  Cache.clear ();
  let w = List.hd Rsti_workloads.Nbench.all in
  let config =
    {
      Pipeline.default with
      Pipeline.cache = false;
      elision = Elide.With_context 2;
      validate = true;
    }
  in
  let a =
    Pipeline.analyze ~config
      (Pipeline.compile ~config
         (Pipeline.source ~file:"off.c" w.Workload.source))
  in
  List.iter
    (fun mode ->
      ignore
        (List.map
           (Pipeline.elide_pred ~config ~mode a)
           (slots (Pipeline.analyzed_ir a))))
    elide_modes;
  let i = Pipeline.instrument ~config RT.Stwc a in
  ignore
    (Pipeline.attack_surface ~config ~mode:(Points_to.Cloning 2) RT.Stwc a);
  ignore (Pipeline.run ~config i);
  List.iter
    (fun (name, s) ->
      checki (name ^ " hits") 0 s.Cache.hits;
      checki (name ^ " misses") 0 s.Cache.misses)
    (Cache.stage_stats ())

(* --------------------- serial vs parallel output -------------------- *)

let take n l = List.filteri (fun i _ -> i < n) l

(* A reduced Perf.t (two kernels per suite) keeps the double measurement
   affordable while exercising the same fan-out/merge path as the full
   figure reproduction. *)
let reduced_perf ~jobs () =
  Scheduler.set_default_jobs jobs;
  let suite ws = Run.measure_suite (take 2 ws) RT.all_mechanisms in
  let p =
    {
      Perf.spec2006 = suite Rsti_workloads.Spec2006.all;
      spec2017 = suite Rsti_workloads.Spec2017.all;
      nbench = suite Rsti_workloads.Nbench.all;
      pytorch = suite Rsti_workloads.Pytorch.all;
      nginx = suite Rsti_workloads.Nginx.all;
    }
  in
  Scheduler.clear_default_jobs ();
  p

let test_fig9_fig10_identical_across_jobs () =
  let serial = reduced_perf ~jobs:1 () in
  (* Drop the artifacts the serial pass populated, so the parallel pass
     recomputes everything rather than trivially serving cache hits. *)
  Cache.clear ();
  let four = reduced_perf ~jobs:4 () in
  checks "fig9 byte-identical" (Figures.fig9 serial) (Figures.fig9 four);
  checks "fig10 byte-identical" (Figures.fig10 serial) (Figures.fig10 four)

let test_table3_identical_across_jobs () =
  Scheduler.set_default_jobs 1;
  let serial = Figures.table3 () in
  Cache.clear ();
  Scheduler.set_default_jobs 4;
  let four = Figures.table3 () in
  Scheduler.clear_default_jobs ();
  checks "table3 byte-identical" serial four

let tests =
  [
    QCheck_alcotest.to_alcotest prop_scheduler_exactly_once;
    Alcotest.test_case "scheduler: stats count each task once" `Quick
      test_scheduler_stats_exactly_once;
    Alcotest.test_case "scheduler: exceptions propagate" `Quick
      test_scheduler_exception_propagates;
    Alcotest.test_case "scheduler: nested fan-out" `Quick
      test_scheduler_nested_map_serializes;
    Alcotest.test_case "scheduler: jobs resolution" `Quick
      test_jobs_resolution_override;
    Alcotest.test_case "cache: hit = fresh computation" `Quick
      test_cache_hit_identical;
    Alcotest.test_case "cache: run re-pricing = fresh simulation" `Quick
      test_run_reprice_matches_simulation;
    Alcotest.test_case "cache: disabled bypasses table" `Quick
      test_cache_disabled_bypasses_table;
    Alcotest.test_case "determinism: fig9/fig10 jobs=1 vs 4" `Slow
      test_fig9_fig10_identical_across_jobs;
    Alcotest.test_case "determinism: table3 jobs=1 vs 4" `Quick
      test_table3_identical_across_jobs;
  ]
