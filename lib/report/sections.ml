module Tab = Rsti_util.Tab
module Json = Rsti_util.Json
module Cache = Rsti_engine.Cache

type t = {
  name : string;
  title : string;
  run : unit -> string * (string * Json.t) list;
}

(* Figures 9 and 10 and the correlation share one measurement of every
   suite, made on first use. *)
let perf = lazy (Perf.collect ())

let perf_json () =
  if Lazy.is_val perf then Perf.to_json (Lazy.force perf) else []

let text name title f = { name; title; run = (fun () -> (f (), [])) }
let of_perf name title f = text name title (fun () -> f (Lazy.force perf))

(* [first] then [second] under its own header; [second] runs after
   [first], as the reports were always computed. *)
let followed_by first header second =
  first ^ "\n" ^ Tab.section header ^ "\n" ^ second ()

let elide name title report header elision =
  text name title (fun () ->
      followed_by (report ()) header (Security.elide_safety ~elision))

let all =
  [
    text "table1" "Table 1: attack catalog" Security.table1;
    text "table2" "Table 2: substitution matrix" Security.table2;
    text "table3" "Table 3: equivalence classes" Figures.table3;
    of_perf "fig9" "Figure 9: overheads" Figures.fig9;
    of_perf "fig10" "Figure 10: distributions" Figures.fig10;
    text "pp-census" "6.2.2: pointer-to-pointer census" Figures.pp_census;
    text "parts" "6.3.2: PARTS comparison (nbench)" Figures.parts_comparison;
    of_perf "correlation" "6.3.2: overhead/instrumentation correlation"
      Figures.correlation;
    text "ablation-pac" "Ablation: PA cost sweep" Ablation.pac_cost_sweep;
    text "ablation-merge" "Ablation: STC merging" Ablation.merge_effect;
    text "ablation-stl" "Ablation: STL argument re-signing"
      Ablation.stl_argument_cost;
    text "ablation-ce" "Ablation: CE width" Ablation.ce_width;
    text "ablation-pac-width" "Ablation: PAC width vs brute force"
      Ablation.pac_brute_force;
    text "backend" "Extension: shadow-MAC backend (section 7)"
      Ablation.backend_comparison;
    elide "elide" "Elision: instrumented-site reduction and overhead delta"
      Ablation.elision "Elision: safety invariant (Table 1 under elision)"
      Rsti_staticcheck.Elide.Syntactic;
    elide "elide-precision" "Elision precision: syntactic vs points-to"
      Ablation.elide_precision
      "Elision: safety invariant (points-to precision)"
      Rsti_staticcheck.Elide.With_points_to;
    {
      name = "elide-precision-cs";
      title = "Elision precision: context-sensitive ladder";
      run =
        (fun () ->
          let rows = Ablation.elide_precision_cs_data () in
          ( Ablation.render_elide_precision_cs rows,
            [ ("elide-precision-cs", Ablation.cs_rows_json rows) ] ));
    };
    text "validate" "PAC-typestate translation validation" Security.validation;
    {
      name = "attack-surface";
      title = "Static substitution attack surface + cross-validation";
      run =
        (fun () ->
          let rows = Attack_surface.collect () in
          let surface = Attack_surface.render rows in
          let crossval = Attack_surface.crossval_summary () in
          ( followed_by surface "Static/dynamic cross-validation" (fun () ->
                Attack_surface.render_crossval crossval),
            [ ("attack-surface", Attack_surface.to_json rows crossval) ] ));
    };
    {
      name = "detection-latency";
      title = "Security-event forensics: detection latency + coverage map";
      run =
        (fun () ->
          let cov = Rsti_attacks.Incident.collect () in
          Rsti_attacks.Incident.emit_events cov;
          ( Incidents.render cov,
            [ ("detection-latency", Rsti_attacks.Incident.coverage_json cov) ]
          ));
    };
  ]

let run sections =
  let t_start = Unix.gettimeofday () in
  let timed =
    List.map
      (fun s ->
        print_endline (Tab.section s.title);
        let t0 = Unix.gettimeofday () in
        let blocks =
          Rsti_observe.Observe.Span.with_ ("bench." ^ s.name) (fun () ->
              let text, blocks = s.run () in
              print_endline text;
              blocks)
        in
        (s.name, Unix.gettimeofday () -. t0, blocks))
      sections
  in
  let wall_clock = Unix.gettimeofday () -. t_start in
  let jobs = Rsti_engine.Scheduler.default_jobs () in
  Printf.eprintf "[bench] %d section(s) in %.2f s at %d job(s)\n%!"
    (List.length sections) wall_clock jobs;
  let cache = Cache.stats () in
  Json.Obj
    ([
       ("schema", Json.Str "rsti-bench-fig9/1");
       ("jobs", Json.Int jobs);
       ("wall_clock_s", Json.Float wall_clock);
       ( "sections",
         Json.List
           (List.map
              (fun (name, seconds, _) ->
                Json.Obj
                  [ ("name", Json.Str name); ("seconds", Json.Float seconds) ])
              timed) );
       ( "cache",
         Json.Obj
           [
             ("hits", Json.Int cache.Cache.hits);
             ("misses", Json.Int cache.Cache.misses);
             ("duplicated", Json.Int cache.Cache.duplicated);
           ] );
     ]
    @ List.concat_map (fun (_, _, blocks) -> blocks) timed
    @ perf_json ())
