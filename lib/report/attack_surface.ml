module RT = Rsti_sti.Rsti_type
module Tab = Rsti_util.Tab
module Pipeline = Rsti_engine.Pipeline
module Equiv = Rsti_dataflow.Equiv
module PT = Rsti_dataflow.Points_to
module Workload = Rsti_workloads.Workload
module Crossval = Rsti_attacks.Crossval

type row = {
  as_workload : string;
  as_mech : RT.mechanism;
  as_mode : PT.mode option;
  as_metrics : Equiv.metrics;
}

let mechs = Rsti_staticcheck.Attack_surface.mechanisms
let modes = [ None; Some PT.Insensitive; Some (PT.Cloning 2) ]

(* The static population is the same one Table 3 partitions: the kernel
   plus its generated never-executed module. Same cache key as
   [Run.analyze_workload], so bench sections share the artifacts. *)
let analyzed_workload (w : Workload.t) =
  Pipeline.analyze
    (Pipeline.compile
       (Pipeline.source
          ~file:(w.Workload.name ^ ".c")
          (Workload.analysis_source w)))

let collect () =
  List.concat
    (Rsti_engine.Scheduler.map
       (fun w ->
         let a = analyzed_workload w in
         List.concat_map
           (fun mech ->
             List.map
               (fun mode ->
                 {
                   as_workload = w.Workload.name;
                   as_mech = mech;
                   as_mode = mode;
                   as_metrics =
                     (Pipeline.attack_surface ?mode mech a).Equiv.r_metrics;
                 })
               modes)
           mechs)
       Rsti_workloads.Spec2006.all)

let find rows w mech mode =
  List.find
    (fun r -> r.as_workload = w && r.as_mech = mech && r.as_mode = mode)
    rows

let workload_names rows =
  List.sort_uniq compare (List.map (fun r -> r.as_workload) rows)
  |> List.sort (fun a b ->
         (* keep input (suite) order, not alphabetical *)
         let pos n =
           let rec go i = function
             | [] -> max_int
             | r :: tl -> if r.as_workload = n then i else go (i + 1) tl
           in
           go 0 rows
         in
         compare (pos a) (pos b))

let class_refinement_ok rows =
  List.for_all
    (fun w ->
      List.for_all
        (fun mode ->
          let c m = (find rows w m mode).as_metrics.Equiv.m_classes in
          c RT.Stc <= c RT.Stwc && c RT.Stwc <= c RT.Stl)
        modes)
    (workload_names rows)

let feasible_refinement_ok rows =
  List.for_all
    (fun w ->
      List.for_all
        (fun mech ->
          let f mode = (find rows w mech mode).as_metrics.Equiv.m_feasible_edges in
          f (Some (PT.Cloning 2)) <= f (Some PT.Insensitive)
          && f (Some PT.Insensitive) <= f None)
        mechs)
    (workload_names rows)

let pct n d = if d = 0 then 0. else 100. *. float_of_int n /. float_of_int d

(* "34 (71%, 5)": classes (singleton share, largest class) *)
let class_cell (m : Equiv.metrics) =
  Printf.sprintf "%d (%.0f%%, %d)" m.Equiv.m_classes
    (pct m.Equiv.m_singletons m.Equiv.m_classes)
    m.Equiv.m_largest

let render rows =
  let ws = workload_names rows in
  let structure =
    List.map
      (fun w ->
        let oracle mech = (find rows w mech None).as_metrics in
        [
          w;
          string_of_int (oracle RT.Stwc).Equiv.m_candidates;
          class_cell (oracle RT.Stwc);
          class_cell (oracle RT.Stc);
          class_cell (oracle RT.Stl);
          class_cell (oracle RT.Parts);
        ])
      ws
  in
  let ladder =
    List.map
      (fun w ->
        let cell mech =
          let f mode = (find rows w mech mode).as_metrics.Equiv.m_feasible_edges in
          Printf.sprintf "%d > %d > %d" (f None) (f (Some PT.Insensitive))
            (f (Some (PT.Cloning 2)))
        in
        [ w; cell RT.Stwc; cell RT.Stc; cell RT.Stl; cell RT.Parts ])
      ws
  in
  let class_ok = class_refinement_ok rows in
  let feas_ok = feasible_refinement_ok rows in
  "Modifier equivalence classes per mechanism (oracle attacker model)\n\
   Cell: classes (singleton share, largest class). STL binds the slot\n\
   address into the modifier, so every class is a singleton; STC merges\n\
   cast-compatible RSTI-types, so it can only coarsen STWC.\n\n"
  ^ Tab.render
      ~align:Tab.[ Left; Right; Right; Right; Right; Right ]
      ~header:[ "Workload"; "slots"; "STWC"; "STC"; "STL"; "PARTS" ]
      structure
  ^ Printf.sprintf
      "\n\nClass refinement (classes STC <= STWC <= STL on every workload): \
       %s\n"
      (if class_ok then "HELD" else "VIOLATED")
  ^ "\nSubstitution-gadget edges by attacker precision\n\
     Cell: replay edges (oracle) > feasible at points-to (insensitive) > \n\
     feasible at points-to (cloning K=2); rising precision can only\n\
     discharge edges, never add them.\n\n"
  ^ Tab.render
      ~align:Tab.[ Left; Right; Right; Right; Right ]
      ~header:[ "Workload"; "STWC"; "STC"; "STL"; "PARTS" ]
      ladder
  ^ Printf.sprintf
      "\n\nFeasibility refinement (edges never increase with precision): %s\n"
      (if feas_ok then "HELD" else "VIOLATED")

(* --------------------- dynamic cross-validation -------------------- *)

let crossval_summary () =
  let kernel_programs =
    List.map
      (fun (w : Workload.t) -> (w.Workload.name, w.Workload.source))
      Rsti_workloads.Spec2006.all
  in
  Crossval.summarize
    ~programs:(Crossval.default_programs () @ kernel_programs)
    ()

let verdict_cell = function
  | Rsti_attacks.Scenario.Attack_succeeded -> "succeeds"
  | Rsti_attacks.Scenario.Detected -> "DETECTED"
  | Rsti_attacks.Scenario.Attack_failed -> "failed"

let render_crossval (s : Crossval.summary) =
  let catalog_rows =
    List.map
      (fun (r : Crossval.catalog_row) ->
        [
          r.Crossval.cr_scenario;
          RT.mechanism_to_string r.Crossval.cr_mech;
          (if r.Crossval.cr_static then "replayable" else "blocked");
          verdict_cell r.Crossval.cr_dynamic;
          (if r.Crossval.cr_agree then "yes" else "NO");
        ])
      s.Crossval.s_catalog
  in
  let gen_rows =
    List.map
      (fun (g : Crossval.gen_row) ->
        [
          g.Crossval.g_program;
          RT.mechanism_to_string g.Crossval.g_mech;
          Printf.sprintf "%s -> %s @ %s" g.Crossval.g_donor g.Crossval.g_victim
            g.Crossval.g_trigger;
          (match g.Crossval.g_kind with
          | Crossval.Same_class -> "same-class"
          | Crossval.Cross_class -> "cross-class");
          (if g.Crossval.g_predicted then "replayable" else "blocked");
          (match g.Crossval.g_detected with
          | None -> "skipped"
          | Some true -> "DETECTED"
          | Some false -> "succeeds");
          (match g.Crossval.g_agree with
          | None -> "-"
          | Some true -> "yes"
          | Some false -> "NO");
        ])
      s.Crossval.s_generated
  in
  "Catalog cross-validation: static verdict vs the machine\n\n"
  ^ Tab.render
      ~align:Tab.[ Left; Left; Right; Right; Right ]
      ~header:[ "Scenario"; "Mechanism"; "Static"; "Dynamic"; "agree" ]
      catalog_rows
  ^ "\n\nGenerated candidate replays (from the analyzer's own classes)\n\
     Same-class candidates must succeed on the machine, cross-class\n\
     controls must trap; an empty-donor candidate is skipped, not\n\
     counted.\n\n"
  ^ Tab.render
      ~align:Tab.[ Left; Left; Left; Left; Right; Right; Right ]
      ~header:
        [ "Program"; "Mechanism"; "Replay"; "Kind"; "Static"; "Dynamic"; "agree" ]
      gen_rows
  ^ Printf.sprintf
      "\n\nCross-validation verdict: %s (checks=%d, skipped=%d; candidate \
       pools: %d same-class, %d cross-class)\n"
      (if s.Crossval.s_disagreements = 0 then "OK - zero disagreements"
       else Printf.sprintf "MISMATCH - %d disagreement(s)" s.Crossval.s_disagreements)
      s.Crossval.s_checked s.Crossval.s_skipped s.Crossval.s_pool_same
      s.Crossval.s_pool_cross

let to_json rows crossval =
  let module J = Rsti_util.Json in
  let mode_slug = function None -> "oracle" | Some m -> PT.mode_to_string m in
  let row r =
    let m = r.as_metrics in
    J.Obj
      [
        ("workload", J.Str r.as_workload);
        ("mech", J.Str (RT.mechanism_slug r.as_mech));
        ("mode", J.Str (mode_slug r.as_mode));
        ("candidates", J.Int m.Equiv.m_candidates);
        ("classes", J.Int m.Equiv.m_classes);
        ("singletons", J.Int m.Equiv.m_singletons);
        ("largest_class", J.Int m.Equiv.m_largest);
        ("replay_edges", J.Int m.Equiv.m_replay_edges);
        ("feasible_edges", J.Int m.Equiv.m_feasible_edges);
      ]
  in
  J.Obj
    [
      ("rows", J.List (List.map row rows));
      ( "monotone_refinement",
        J.Bool (class_refinement_ok rows && feasible_refinement_ok rows) );
      ("crossval", Crossval.summary_json crossval);
    ]
