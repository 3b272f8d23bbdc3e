module RT = Rsti_sti.Rsti_type
module Run = Rsti_workloads.Run
module Pipeline = Rsti_engine.Pipeline
module Points_to = Rsti_dataflow.Points_to
module Tab = Rsti_util.Tab

let pct x = Printf.sprintf "%.2f%%" x

let pac_cost_sweep () =
  let rows =
    List.map
      (fun pac ->
        let config =
          {
            Pipeline.default with
            Pipeline.costs =
              Rsti_machine.Cost.with_pac Rsti_machine.Cost.default pac;
          }
        in
        let cells =
          List.map
            (fun mech ->
              let ms =
                Run.measure_suite ~config Rsti_workloads.Spec2006.all [ mech ]
              in
              pct (Run.geomean_overhead ms))
            RT.all_mechanisms
        in
        string_of_int pac :: cells)
      [ 3; 5; 7; 9; 12 ]
  in
  "Ablation: PA instruction cost (cycles) vs SPEC2006 geomean overhead\n\
   (the paper's model point is 7, the measured 7-XOR equivalence)\n\n"
  ^ Tab.render ~header:[ "pac cost"; "RSTI-STWC"; "RSTI-STC"; "RSTI-STL" ] rows

let analyzed_workload (w : Rsti_workloads.Workload.t) =
  Pipeline.analyze (Pipeline.compile (Pipeline.source ~file:(w.name ^ ".c") w.source))

let instrument_workload mech (w : Rsti_workloads.Workload.t) =
  let a = analyzed_workload w in
  (Pipeline.result (Pipeline.instrument mech a), Pipeline.analysis a)

let merge_effect () =
  let rows =
    List.map
      (fun (w : Rsti_workloads.Workload.t) ->
        let r_stc, anal = instrument_workload RT.Stc w in
        let r_stwc, _ = instrument_workload RT.Stwc w in
        let s = Rsti_sti.Analysis.stats anal in
        let sites (c : Rsti_rsti.Instrument.static_counts) =
          c.signs + c.auths + (2 * c.resigns)
        in
        [
          w.name;
          string_of_int s.rt_stc;
          string_of_int s.rt_stwc;
          string_of_int (sites r_stc.counts);
          string_of_int (sites r_stwc.counts);
        ])
      Rsti_workloads.Spec2006.all
  in
  "Ablation: STC's compatible-type merging (Figure 8)\n\
   Merging shrinks the RSTI-type space and removes cast re-signing.\n\n"
  ^ Tab.render
      ~header:[ "BM"; "RT merged"; "RT unmerged"; "sites STC"; "sites STWC" ]
      rows

let stl_argument_cost () =
  let rows =
    List.map
      (fun (w : Rsti_workloads.Workload.t) ->
        let r_stl, _ = instrument_workload RT.Stl w in
        let r_stwc, _ = instrument_workload RT.Stwc w in
        [
          w.name;
          string_of_int r_stwc.counts.resigns;
          string_of_int r_stl.counts.resigns;
          string_of_int (r_stl.counts.resigns - r_stwc.counts.resigns);
        ])
      Rsti_workloads.Spec2006.all
  in
  "Ablation: STL location re-binding (section 4.6)\n\
   Extra re-sign sites are pointer arguments and pointer returns whose\n\
   location changes at the call boundary.\n\n"
  ^ Tab.render
      ~header:[ "BM"; "resigns STWC"; "resigns STL"; "attributable to &p" ]
      rows

let ce_width () =
  let count_types ws =
    List.fold_left
      (fun acc (w : Rsti_workloads.Workload.t) ->
        let anal = Run.analyze_workload w in
        List.fold_left
          (fun acc (ty, _, _) ->
            let s = Rsti_minic.Ctype.to_string ty in
            if List.mem s acc then acc else s :: acc)
          acc
          (Rsti_sti.Analysis.ce_table anal))
      [] ws
  in
  let suites =
    [
      ("SPEC2006", Rsti_workloads.Spec2006.all);
      ("SPEC2017", Rsti_workloads.Spec2017.all);
      ("nbench", Rsti_workloads.Nbench.all);
      ("PyTorch", Rsti_workloads.Pytorch.all);
      ("NGINX", Rsti_workloads.Nginx.all);
    ]
  in
  let rows =
    List.map
      (fun (label, ws) ->
        let n = List.length (count_types ws) in
        [ label; string_of_int n; "255"; (if n <= 255 then "yes" else "NO") ])
      suites
  in
  "Ablation: pointer-to-pointer CE capacity (section 4.7.7)\n\
   The CE tag is 8 bits (255 usable values); the paper argues real\n\
   programs need only a handful of full-equivalent types.\n\n"
  ^ Tab.render ~header:[ "Suite"; "FE types needed"; "budget"; "fits" ] rows

let pac_brute_force () =
  let trials = 4096 in
  let rows =
    List.map
      (fun (label, layout) ->
        (* a dedicated PA context with the requested layout *)
        let pac = Rsti_pa.Pac.make ~layout ~seed:99L () in
        let width = Rsti_pa.Vaddr.pac_width layout in
        let rng = Rsti_util.Splitmix.create 4242L in
        let accepted = ref 0 in
        for _ = 1 to trials do
          (* the attacker controls the PAC bits but not the keys *)
          let guess = Rsti_util.Splitmix.next64 rng in
          let forged =
            Rsti_pa.Vaddr.embed_pac layout ~pac:guess 0x2000_0040L
          in
          match Rsti_pa.Pac.auth pac ~key:Rsti_pa.Key.DA ~modifier:7L forged with
          | Ok _ -> incr accepted
          | Error _ -> ()
        done;
        let rate = float_of_int !accepted /. float_of_int trials in
        [
          label;
          string_of_int width;
          Printf.sprintf "%.5f" rate;
          Printf.sprintf "%.5f" (1. /. float_of_int (1 lsl width));
        ])
      [ ("TBI on (RSTI's config)", Rsti_pa.Vaddr.default);
        ("TBI off", Rsti_pa.Vaddr.no_tbi) ]
  in
  "Ablation: PAC width vs brute-force forgery (4096 random guesses)\n\
   The acceptance rate must track 2^-width; RSTI trades 8 PAC bits for\n\
   the TBI byte its pointer-to-pointer CE tag needs (section 4.7.7).\n\n"
  ^ Tab.render
      ~header:[ "layout"; "PAC bits"; "measured accept rate"; "expected 2^-w" ]
      rows

let elision () =
  let mechs = RT.all_mechanisms in
  let sites (c : Rsti_rsti.Instrument.static_counts) =
    c.signs + c.auths + (2 * c.resigns)
  in
  let elide_config =
    { Pipeline.default with Pipeline.elision = Rsti_staticcheck.Elide.Syntactic }
  in
  let full = ref [] and elided = ref [] in
  let rows =
    List.map
      (fun (w : Rsti_workloads.Workload.t) ->
        let ms_full = Run.measure w mechs in
        let ms_elide = Run.measure ~config:elide_config w mechs in
        full := !full @ ms_full;
        elided := !elided @ ms_elide;
        let stwc_full = List.find (fun m -> m.Run.mech = RT.Stwc) ms_full in
        let stwc_el = List.find (fun m -> m.Run.mech = RT.Stwc) ms_elide in
        let s_full = sites stwc_full.Run.static_counts in
        let s_el = sites stwc_el.Run.static_counts in
        let reduction =
          if s_full = 0 then 0.
          else float_of_int (s_full - s_el) /. float_of_int s_full *. 100.
        in
        [
          w.name;
          string_of_int s_full;
          string_of_int s_el;
          string_of_int stwc_el.Run.static_counts.elided;
          Printf.sprintf "%.1f%%" reduction;
          pct stwc_full.Run.overhead_pct;
          pct stwc_el.Run.overhead_pct;
        ])
      Rsti_workloads.Spec2006.all
  in
  let geo mech ms =
    Run.geomean_overhead (List.filter (fun m -> m.Run.mech = mech) ms)
  in
  "Elision: proof-based instrumentation removal (staticcheck)\n\
   Sites whose sign/auth the static checker proves redundant keep plain\n\
   loads/stores; the safety report shows no detection verdict changes.\n\
   Counts and overheads below are RSTI-STWC (fig9 with/without elision).\n\n"
  ^ Tab.render
      ~header:
        [
          "BM"; "sites"; "sites+elide"; "elided"; "reduction";
          "ovh STWC"; "ovh STWC+elide";
        ]
      rows
  ^ "\n"
  ^ Tab.render
      ~header:[ "geomean overhead"; "STWC"; "STC"; "STL" ]
      [
        "full" :: List.map (fun m -> pct (geo m !full)) mechs;
        "elided" :: List.map (fun m -> pct (geo m !elided)) mechs;
      ]
  ^ "\n(The STC < STWC < STL ordering must survive elision.)\n"

(* Per-workload safe-site counts at both elision precisions: the tally
   behind the framework's headline claim that Andersen confinement
   strictly grows the provably-safe set. The three analyses per workload
   are independent, so the suite fans out across domains. *)
let elide_precision () =
  let module Elide = Rsti_staticcheck.Elide in
  let rows =
    Rsti_engine.Scheduler.map
      (fun (w : Rsti_workloads.Workload.t) ->
        let src =
          Pipeline.source ~file:(w.name ^ ".c")
            (Rsti_workloads.Workload.analysis_source w)
        in
        let c = Pipeline.compile src in
        let a = Pipeline.analyze c in
        let anal = Pipeline.analysis a in
        let m = Pipeline.ir c in
        let pt = Pipeline.points_to c in
        let syn = Elide.summary (Elide.analyze anal m) in
        let pts = Elide.summary (Elide.analyze ~points_to:pt anal m) in
        let st = Points_to.stats pt in
        [
          w.name;
          string_of_int syn.Elide.candidates;
          string_of_int syn.Elide.safe;
          string_of_int pts.Elide.safe;
          string_of_int (pts.Elide.safe - syn.Elide.safe);
          string_of_int st.Points_to.objects;
        ])
      Rsti_workloads.Spec2006.all
  in
  "Elision precision: syntactic flow-component proof vs points-to\n\
   confinement (rsti_dataflow's Andersen analysis discharging the\n\
   escape/cast/heap-adjacency obligations). \"delta\" is the number of\n\
   sites the interprocedural proof newly removes; soundness is the\n\
   monotone property test plus the verdict-identity report.\n\n"
  ^ Tab.render
      ~align:Tab.[ Left; Right; Right; Right; Right; Right ]
      ~header:
        [ "BM"; "candidates"; "safe (syntactic)"; "safe (points-to)";
          "delta"; "pt objects" ]
      rows

(* Three-way precision ladder: the syntactic flow-component proof, the
   insensitive Andersen confinement, and k=2 call-site cloning with the
   scope-escape completion. The data form is what BENCH_fig9.json
   embeds; per-mode wall-clocks price the extra precision. *)
type cs_row = {
  cs_name : string;
  cs_candidates : int;
  cs_safe_syn : int;
  cs_safe_pt : int;
  cs_safe_cs : int;
  cs_seconds_pt : float;
  cs_seconds_cs : float;
}

let elide_precision_cs_data () =
  let module Elide = Rsti_staticcheck.Elide in
  Rsti_engine.Scheduler.map
    (fun (w : Rsti_workloads.Workload.t) ->
      let src =
        Pipeline.source ~file:(w.name ^ ".c")
          (Rsti_workloads.Workload.analysis_source w)
      in
      let c = Pipeline.compile src in
      let a = Pipeline.analyze c in
      let anal = Pipeline.analysis a in
      let m = Pipeline.ir c in
      let syn = Elide.summary (Elide.analyze anal m) in
      let time f =
        let t0 = Unix.gettimeofday () in
        let r = f () in
        (r, Unix.gettimeofday () -. t0)
      in
      let pts, s_pt =
        time (fun () ->
            Elide.summary
              (Elide.analyze ~points_to:(Pipeline.points_to c) anal m))
      in
      let cs, s_cs =
        time (fun () ->
            let mode = Points_to.Cloning 2 in
            let pt = Pipeline.points_to ~mode c in
            let scope = Pipeline.scope_escape ~mode c in
            Elide.summary (Elide.analyze ~points_to:pt ~scope anal m))
      in
      {
        cs_name = w.name;
        cs_candidates = syn.Elide.candidates;
        cs_safe_syn = syn.Elide.safe;
        cs_safe_pt = pts.Elide.safe;
        cs_safe_cs = cs.Elide.safe;
        cs_seconds_pt = s_pt;
        cs_seconds_cs = s_cs;
      })
    Rsti_workloads.Spec2006.all

let render_elide_precision_cs data =
  let rows =
    List.map
      (fun r ->
        [
          r.cs_name;
          string_of_int r.cs_candidates;
          string_of_int r.cs_safe_syn;
          string_of_int r.cs_safe_pt;
          string_of_int r.cs_safe_cs;
          string_of_int (r.cs_safe_cs - r.cs_safe_pt);
          Printf.sprintf "%.3f" r.cs_seconds_pt;
          Printf.sprintf "%.3f" r.cs_seconds_cs;
        ])
      data
  in
  "Elision precision: syntactic vs insensitive points-to vs k=2\n\
   call-site cloning (context-sensitive confinement plus the\n\
   scope-escape refinement). \"delta\" is what cloning adds over the\n\
   insensitive proof — non-negative by the qcheck refinement property,\n\
   strictly positive where merged return channels were the blocker.\n\n"
  ^ Tab.render
      ~align:Tab.[ Left; Right; Right; Right; Right; Right; Right; Right ]
      ~header:
        [ "BM"; "candidates"; "safe (syn)"; "safe (pt)"; "safe (cs k=2)";
          "delta"; "s (pt)"; "s (cs)" ]
      rows

let cs_rows_json rows =
  let module J = Rsti_util.Json in
  J.List
    (List.map
       (fun r ->
         J.Obj
           [
             ("name", J.Str r.cs_name);
             ("candidates", J.Int r.cs_candidates);
             ("safe_syntactic", J.Int r.cs_safe_syn);
             ("safe_points_to", J.Int r.cs_safe_pt);
             ("safe_cloning_k2", J.Int r.cs_safe_cs);
             ("seconds_points_to", J.Float r.cs_seconds_pt);
             ("seconds_cloning_k2", J.Float r.cs_seconds_cs);
           ])
       rows)

let backend_comparison () =
  let mech = RT.Stwc in
  let rows =
    List.filter_map
      (fun (w : Rsti_workloads.Workload.t) ->
        let a = analyzed_workload w in
        let inst = Pipeline.instrument mech a in
        let base = Pipeline.run_baseline (Pipeline.compiled_of_analyzed a) in
        let run backend = Pipeline.run ~backend inst in
        let pac = run `Pac and mac = run `Shadow_mac in
        let overhead (o : Rsti_machine.Interp.outcome) =
          (float_of_int o.cycles /. float_of_int base.Rsti_machine.Interp.cycles -. 1.)
          *. 100.
        in
        if overhead pac < 0.005 && overhead mac < 0.005 then None
        else
          Some [ w.name; pct (overhead pac); pct (overhead mac) ])
      Rsti_workloads.Spec2006.all
  in
  "Extension (section 7): the same STWC policy enforced through a\n\
   CCFI-style shadow MAC instead of PAC. The MAC is full-width and bound\n\
   to the slot address (so even in-class replays are caught), but each\n\
   check pays a shadow-table access on top of the MAC — the overhead\n\
   trade-off the paper describes for CCFI.\n\n"
  ^ Tab.render
      ~header:[ "BM (pointer-active only)"; "STWC via PAC"; "STWC via shadow MAC" ]
      rows
