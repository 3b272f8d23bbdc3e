(* The three workloads. Each set-up builds its inputs from the seed
   alone and prepares them; each unit calls the layers' public
   functions directly, inside the benchmark's own spans, adds its exact
   counts to the pass's [Counts.t] and returns [None] when its result
   passed every check, or [Some reason]. *)

module RT = Rsti_sti.Rsti_type
module Interp = Rsti_machine.Interp
module Cost = Rsti_machine.Cost
module Pipeline = Rsti_engine.Pipeline
module Cache = Rsti_engine.Cache
module Points_to = Rsti_dataflow.Points_to
module Scope_escape = Rsti_dataflow.Scope_escape
module Validate = Rsti_dataflow.Validate
module Equiv = Rsti_dataflow.Equiv
module Elide = Rsti_staticcheck.Elide
module Lint = Rsti_staticcheck.Lint
module Instrument = Rsti_rsti.Instrument
module Scenario = Rsti_attacks.Scenario
module W = Rsti_workloads
module Rng = Rsti_util.Splitmix

type prepared = {
  labels : string array;  (** one per unit, in pass order *)
  config : int array;  (** index into {!configs}, or -1 *)
  run : int -> Counts.t -> string option;
  fail : Counts.t -> unit;
      (** bump this workload's failure counter for one failed unit *)
}

type t = {
  name : string;
  columns : string;  (** what a committed row holds *)
  setup : seed:int -> expected:Expected.t -> prepared;
}

(* Machine configurations, in metric order. *)
let default_seed = 1
let configs = [| "nop"; "stwc"; "stc"; "stl"; "parts" |]
let mechs = [| RT.Nop; RT.Stwc; RT.Stc; RT.Stl; RT.Parts |]

let config_index mech =
  let rec go i = if mechs.(i) = mech then i else go (i + 1) in
  go 0

let shuffled ~seed a =
  let a = Array.copy a in
  Rng.shuffle (Rng.create (Int64.of_int seed)) a;
  a

let pac_ops (c : Interp.counts) =
  c.Interp.pac_signs + c.Interp.pac_auths + c.Interp.pac_strips
  + c.Interp.pp_calls

(* ------------------------------------------------------------------ *)
(* simulate: Figure-9 kernels on the machine                          *)
(* ------------------------------------------------------------------ *)

let kernels () =
  W.Spec2006.all @ W.Spec2017.all @ W.Nbench.all @ W.Pytorch.all
  @ W.Nginx.all

type loaded = {
  modul : Rsti_ir.Ir.modul;
  pp_table : (int * int64) list;
  costs : Cost.t;
}

let sim_row (o : Interp.outcome) =
  let c = o.Interp.counts in
  let exit_code =
    match o.Interp.status with
    | Interp.Exited n -> Int64.to_string n
    | Interp.Trapped t -> "trap:" ^ Interp.trap_to_string t
  in
  Printf.sprintf "%s %s %d %d %d %d %d %d" exit_code
    (Digest.to_hex (Digest.string o.Interp.output))
    c.Interp.instrs o.Interp.cycles c.Interp.pac_signs c.Interp.pac_auths
    c.Interp.pac_strips c.Interp.pp_calls

(* A unit's result is correct when its row equals the committed row for
   its (kernel, configuration) — exit status, output digest, instrs,
   cycles and every PAC count — and its output digest equals the
   kernel's uninstrumented one: instrumentation never changes results. *)
let sim_check ~expected ~kernel ~cfg row =
  let key = kernel ^ "/" ^ configs.(cfg) in
  let output r = List.nth_opt (String.split_on_char ' ' r) 1 in
  if Expected.recording expected then begin
    Expected.record expected key row;
    None
  end
  else
    match (Expected.find expected key, Expected.find expected (kernel ^ "/nop")) with
    | None, _ -> Some "no committed row"
    | Some want, _ when want <> row ->
        Some (Printf.sprintf "got [%s], committed [%s]" row want)
    | Some _, Some base when output base = output row -> None
    | Some _, _ -> Some "output differs from the uninstrumented run"

let simulate_setup ~seed ~expected =
  Cache.clear ();
  let config = Pipeline.default in
  let loaded =
    List.concat_map
      (fun (w : W.Workload.t) ->
        let c =
          Pipeline.compile ~config
            (Pipeline.source ~file:(w.W.Workload.name ^ ".c") w.W.Workload.source)
        in
        let a = Pipeline.analyze ~config c in
        let base =
          { modul = Pipeline.ir c; pp_table = []; costs = Cost.default }
        in
        let inst mech =
          let r = Pipeline.result (Pipeline.instrument ~config mech a) in
          {
            modul = r.Instrument.modul;
            pp_table = r.Instrument.pp_table;
            costs =
              (if mech = RT.Parts then
                 { Cost.parts_codegen with pac = Cost.default.Cost.pac }
               else Cost.default);
          }
        in
        List.mapi
          (fun cfg l -> (w.W.Workload.name, cfg, l))
          (base :: List.map inst [ RT.Stwc; RT.Stc; RT.Stl; RT.Parts ]))
      (kernels ())
  in
  let units = shuffled ~seed (Array.of_list loaded) in
  let run u (counts : Counts.t) =
    let kernel, cfg, l = units.(u) in
    let vm =
      Trace.machine Trace.machine_create (fun () ->
          Interp.create ~costs:l.costs ~pp_table:l.pp_table l.modul)
    in
    let o = Trace.machine Trace.machine_run (fun () -> Interp.run vm) in
    counts.instrs <- counts.instrs + o.Interp.counts.Interp.instrs;
    counts.cycles <- counts.cycles + o.Interp.cycles;
    counts.pac_ops <- counts.pac_ops + pac_ops o.Interp.counts;
    sim_check ~expected ~kernel ~cfg (sim_row o)
  in
  {
    labels = Array.map (fun (k, cfg, _) -> k ^ "/" ^ configs.(cfg)) units;
    config = Array.map (fun (_, cfg, _) -> cfg) units;
    run;
    fail = (fun c -> c.divergences <- c.divergences + 1);
  }

let simulate =
  {
    name = "simulate";
    columns =
      "kernel/config -> exit output_md5 instrs cycles pac_signs pac_auths \
       pac_strips pp_calls";
    setup = simulate_setup;
  }

(* ------------------------------------------------------------------ *)
(* analyze: every static layer, once per module                       *)
(* ------------------------------------------------------------------ *)

(* The SPEC2006 Table-3 populations minus the two whose 13-15 s each
   would swamp a pass. *)
let spec_populations () =
  List.filter_map
    (fun (w : W.Workload.t) ->
      if List.mem w.W.Workload.name [ "dealII"; "xalancbmk" ] then None
      else Some ("spec." ^ w.W.Workload.name, W.Workload.analysis_source w))
    W.Spec2006.all

(* 22 modules keep an analyze pass near 4.5 s, so that 5-6 passes fit in
   a 30 s run and each unit's latency is a median over that many. *)
let size_slots = 22
let min_structs = 3
let max_structs = 128

(* Generated library modules, one per size slot. Sizes are log-uniform
   over [min_structs, max_structs] (the midpoints of equal slices of the
   log range) and each slot's program comes from a fixed generator seed,
   so the population is the same for every workload seed: at equal size
   two generated programs differ by 10-15% in analysis time, which would
   otherwise move the pass's percentiles from seed to seed. *)
let generated () =
  let lo = log (float_of_int min_structs)
  and hi = log (float_of_int max_structs) in
  List.init size_slots (fun j ->
      let u = (float_of_int j +. 0.5) /. float_of_int size_slots in
      let structs = int_of_float (Float.round (exp (lo +. (u *. (hi -. lo))))) in
      let config =
        {
          W.Generator.default with
          n_structs = structs;
          n_funcs = max 4 (structs * 2);
          n_globals = max 2 (structs / 2);
          cast_bias = 0.25;
          prefix = "zz_";
          emit_main = false;
          pp_typed_rate = 0.35;
          pp_erased_rate = 0.008;
        }
      in
      ( Printf.sprintf "gen%02d.s%d" j structs,
        W.Generator.generate ~config ~seed:(Int64.of_int (7919 * (j + 1))) () ))

let ir_instrs (m : Rsti_ir.Ir.modul) =
  List.fold_left
    (fun acc (f : Rsti_ir.Ir.func) ->
      Array.fold_left
        (fun acc (b : Rsti_ir.Ir.block) -> acc + List.length b.Rsti_ir.Ir.instrs)
        acc f.Rsti_ir.Ir.blocks)
    0 m.Rsti_ir.Ir.m_funcs

let static_mechs = [ RT.Stwc; RT.Stc; RT.Stl; RT.Parts ]

(* One module through every static layer in pipeline order. Returns the
   module's exact output counts and the law violations found. *)
let analyze_module ~file src =
  let span = Trace.span in
  let ast = span Trace.parse (fun () -> Rsti_minic.Parser.parse ~file src) in
  let tast = span Trace.typecheck (fun () -> Rsti_minic.Typecheck.check ast) in
  let ir = span Trace.lower (fun () -> Rsti_ir.Lower.lower tast) in
  let anal = span Trace.sti_analysis (fun () -> Rsti_sti.Analysis.analyze ir) in
  let pt = span Trace.points_to (fun () -> Points_to.analyze ir) in
  let pt_cs =
    span Trace.points_to_cs (fun () ->
        Points_to.analyze ~mode:(Points_to.Cloning 2) ir)
  in
  let scope =
    span Trace.scope_escape (fun () ->
        Scope_escape.analyze ~points_to:pt_cs ir)
  in
  let syn, ptd, ctx, ctx_sum =
    span Trace.elide (fun () ->
        let s = Elide.analyze anal ir in
        let p = Elide.analyze ~points_to:pt anal ir in
        let c = Elide.analyze ~points_to:pt_cs ~scope anal ir in
        (Elide.summary s, Elide.summary p, c, Elide.summary c))
  in
  let instrumented =
    List.map
      (fun mech ->
        let elide = if mech = RT.Parts then None else Some (Elide.elide ctx) in
        let r =
          span Trace.instrument (fun () ->
              Instrument.instrument ?elide mech anal ir)
        in
        let rep =
          span Trace.validate (fun () ->
              Validate.check anal mech r.Instrument.modul)
        in
        (mech, r.Instrument.counts, Validate.ok rep))
      static_mechs
  in
  let equiv =
    List.map
      (fun mech ->
        span Trace.equiv (fun () ->
            let oracle = Equiv.analyze anal ir mech in
            let cs = Equiv.analyze ~points_to:pt_cs ~scope anal ir mech in
            (mech, oracle.Equiv.r_metrics, cs.Equiv.r_metrics)))
      static_mechs
  in
  let findings = span Trace.lint (fun () -> Lint.run ~scope anal ir) in
  let pts = Points_to.stats pt and pcs = Points_to.stats pt_cs in
  let sites =
    List.fold_left
      (fun acc (_, (c : Instrument.static_counts), _) ->
        acc + c.signs + c.auths + c.resigns + c.strips + c.pp_ops)
      0 instrumented
  in
  let classes mech =
    List.find_map
      (fun (m, (o : Equiv.metrics), _) ->
        if m = mech then Some o.Equiv.m_classes else None)
      equiv
    |> Option.get
  in
  let violations =
    List.filter_map
      (fun (mech, _, ok) ->
        if ok then None
        else Some ("validator rejects " ^ RT.mechanism_to_string mech))
      instrumented
    @ (if syn.Elide.safe <= ptd.Elide.safe && ptd.Elide.safe <= ctx_sum.Elide.safe
       then []
       else [ "safe sites not syntactic <= points-to <= context:2" ])
    @ (if classes RT.Stc <= classes RT.Stwc && classes RT.Stwc <= classes RT.Stl
       then []
       else [ "Equiv classes not STC <= STWC <= STL" ])
    @ List.filter_map
        (fun (mech, (o : Equiv.metrics), (cs : Equiv.metrics)) ->
          if cs.Equiv.m_feasible_edges <= o.Equiv.m_replay_edges then None
          else
            Some
              ("feasible(cloning:2) > replay edges under "
              ^ RT.mechanism_to_string mech))
        equiv
  in
  let row =
    [
      String.length src;
      ir_instrs ir;
      pts.Points_to.iterations + pcs.Points_to.iterations;
      pcs.Points_to.clones;
      List.length (Scope_escape.escapes scope);
      syn.Elide.candidates;
      syn.Elide.safe;
      ptd.Elide.safe;
      ctx_sum.Elide.safe;
      sites;
      List.fold_left (fun acc (_, (o : Equiv.metrics), _) -> acc + o.Equiv.m_classes) 0 equiv;
      List.length findings;
    ]
  in
  (row, violations)

let add_row (c : Counts.t) = function
  | [ src; ir; it; cl; esc; cand; syn; ptd; ctx; sites; classes; findings ] ->
      c.source_bytes <- c.source_bytes + src;
      c.ir_instrs <- c.ir_instrs + ir;
      c.pt_iterations <- c.pt_iterations + it;
      c.clones <- c.clones + cl;
      c.scope_escapes <- c.scope_escapes + esc;
      c.candidates <- c.candidates + cand;
      c.safe_syntactic <- c.safe_syntactic + syn;
      c.safe_points_to <- c.safe_points_to + ptd;
      c.safe_context <- c.safe_context + ctx;
      c.sites <- c.sites + sites;
      c.equiv_classes <- c.equiv_classes + classes;
      c.lint_findings <- c.lint_findings + findings
  | _ -> invalid_arg "add_row"

let analyze_setup ~seed ~expected =
  let modules =
    shuffled ~seed (Array.of_list (spec_populations () @ generated ()))
  in
  let run u counts =
    let name, src = modules.(u) in
    let row, violations = analyze_module ~file:(name ^ ".c") src in
    add_row counts row;
    let got = String.concat " " (List.map string_of_int row) in
    match violations with
    | v :: _ -> Some v
    | [] when Expected.recording expected ->
        Expected.record expected name got;
        None
    | [] -> (
        match Expected.find expected name with
        | Some want when want = got -> None
        | Some want -> Some (Printf.sprintf "counts [%s], committed [%s]" got want)
        | None -> Some "no committed digest")
  in
  (* Warm-up: one of the smallest populations, through every layer once. *)
  ignore (analyze_module ~file:"warmup.c" (List.assoc "spec.mcf" (spec_populations ())));
  {
    labels = Array.map fst modules;
    config = Array.make (Array.length modules) (-1);
    run;
    fail = (fun c -> c.validate_failures <- c.validate_failures + 1);
  }

let analyze =
  {
    name = "analyze";
    columns =
      "module -> source_bytes ir_instrs points_to_iterations clones \
       scope_escapes candidates safe_syntactic safe_points_to safe_context2 \
       rsti_sites equiv_classes lint_findings";
    setup = analyze_setup;
  }

(* ------------------------------------------------------------------ *)
(* attack: catalog replays with the flight recorder on                *)
(* ------------------------------------------------------------------ *)

(* The 82 (scenario, configuration) pairs with a hand-written expected
   verdict. *)
let attack_pairs () =
  let open Rsti_attacks in
  let matrix table =
    List.concat_map (fun (sc, ex) -> List.map (fun (m, v) -> (sc, m, v)) ex) table
  in
  List.concat_map
    (fun sc ->
      (sc, RT.Nop, Scenario.Attack_succeeded)
      :: List.map (fun m -> (sc, m, Scenario.Detected)) RT.all_mechanisms)
    Catalog.all
  @ matrix Substitution.expected
  @ matrix Memory_safety.expected
  @ List.map
      (fun sc -> (sc, RT.Nop, Scenario.Attack_succeeded))
      (Substitution.all @ Memory_safety.all)

(* Replays per pair in one pass. *)
let attack_reps = 40

let replay (sc : Scenario.t) mech =
  let config = Pipeline.default in
  let c =
    Trace.span Trace.engine_compile (fun () ->
        Pipeline.compile ~config
          (Pipeline.source ~file:(sc.Scenario.id ^ ".c") sc.Scenario.program))
  in
  let a = Trace.span Trace.engine_analyze (fun () -> Pipeline.analyze ~config c) in
  let r =
    Pipeline.result
      (Trace.span Trace.engine_instrument (fun () ->
           Pipeline.instrument ~config mech a))
  in
  let vm =
    Trace.machine Trace.machine_create (fun () ->
        Interp.create ~costs:config.Pipeline.costs
          ~flight:Rsti_attacks.Incident.default_flight
          ~pp_table:r.Instrument.pp_table r.Instrument.modul)
  in
  let o =
    Trace.machine Trace.machine_run (fun () ->
        Interp.run ~attacks:sc.Scenario.attacks vm)
  in
  (* classified the way Scenario.run classifies *)
  let verdict =
    if Interp.detected o then Scenario.Detected
    else if sc.Scenario.success o then Scenario.Attack_succeeded
    else Scenario.Attack_failed
  in
  (verdict, o)

let attack_setup ?inject_wrong ~seed ~expected:_ () =
  Cache.clear ();
  let pairs = Array.of_list (attack_pairs ()) in
  (match inject_wrong with
  | Some k ->
      let sc, m, v = pairs.(k) in
      let flipped =
        if v = Scenario.Detected then Scenario.Attack_succeeded
        else Scenario.Detected
      in
      pairs.(k) <- (sc, m, flipped)
  | None -> ());
  (* one cold round fills the engine cache *)
  Array.iter (fun (sc, m, _) -> ignore (replay sc m)) pairs;
  let units =
    shuffled ~seed
      (Array.init (Array.length pairs * attack_reps) (fun i ->
           pairs.(i mod Array.length pairs)))
  in
  let run u (counts : Counts.t) =
    let sc, mech, want = units.(u) in
    let verdict, o = replay sc mech in
    let incidents = List.length o.Interp.incidents in
    counts.instrs <- counts.instrs + o.Interp.counts.Interp.instrs;
    counts.cycles <- counts.cycles + o.Interp.cycles;
    counts.pac_ops <- counts.pac_ops + pac_ops o.Interp.counts;
    if verdict = Scenario.Detected then counts.detected <- counts.detected + 1;
    counts.incidents <- counts.incidents + incidents;
    List.iter
      (fun (i : Interp.incident) ->
        match i.Interp.inc_latency_instrs with
        | Some n -> counts.latencies <- n :: counts.latencies
        | None -> ())
      o.Interp.incidents;
    if verdict <> want then
      Some
        (Printf.sprintf "verdict %s, expected %s"
           (Scenario.verdict_to_string verdict)
           (Scenario.verdict_to_string want))
    else if verdict = Scenario.Detected && incidents <> 1 then
      Some (Printf.sprintf "detected with %d incidents" incidents)
    else None
  in
  {
    labels =
      Array.map
        (fun ((sc : Scenario.t), m, _) ->
          sc.Scenario.id ^ "/" ^ configs.(config_index m))
        units;
    config = Array.map (fun (_, m, _) -> config_index m) units;
    run;
    fail = (fun c -> c.verdict_mismatches <- c.verdict_mismatches + 1);
  }

let attack =
  {
    name = "attack";
    columns = "";
    setup = (fun ~seed ~expected -> attack_setup ~seed ~expected ());
  }

let all = [ simulate; analyze; attack ]
let find name = List.find_opt (fun w -> w.name = name) all
