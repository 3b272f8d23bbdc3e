module RT = Rsti_sti.Rsti_type
module Elide = Rsti_staticcheck.Elide
module Points_to = Rsti_dataflow.Points_to
module Observe = Rsti_observe.Observe

(* Stage spans carry just enough attrs to read a trace: the file for
   frontend stages, file x mechanism for the per-mechanism ones. The
   attr lists are built only when recording is on, so the disabled path
   costs one flag load per stage. *)
let stage_span name (attrs : unit -> (string * string) list) f =
  if Observe.enabled () then Observe.Span.with_ ~attrs:(attrs ()) name f
  else f ()

let c_reprices = Observe.Metrics.counter "cache.outcome.reprices"

type config = {
  costs : Rsti_machine.Cost.t;
  elision : Elide.mode;
  validate : bool;
  cache : bool;
}

let default =
  {
    costs = Rsti_machine.Cost.default;
    elision = Elide.Off;
    validate = false;
    cache = true;
  }

exception Validation_failed of Rsti_dataflow.Validate.report

type source = { file : string; text : string; digest : string }
type compiled = { src : source; modul : Rsti_ir.Ir.modul }
type analyzed = { comp : compiled; anal : Rsti_sti.Analysis.t }

type instrumented = {
  stage : analyzed;
  mech : RT.mechanism;
  elision : Elide.mode;
  result : Rsti_rsti.Instrument.result;
}

(* The cache stages this module owns, in pipeline order. *)
let st_compile : Rsti_ir.Ir.modul Cache.stage = Cache.stage "compile"
let st_analysis : Rsti_sti.Analysis.t Cache.stage = Cache.stage "analysis"
let st_points_to : Points_to.t Cache.stage = Cache.stage "points_to"
let st_points_to_cs : Points_to.t Cache.stage = Cache.stage "points_to_cs"

let st_scope : Rsti_dataflow.Scope_escape.t Cache.stage =
  Cache.stage "scope_escape"

let st_elide : (Rsti_ir.Ir.slot -> bool) Cache.stage = Cache.stage "elide"
let st_elide_pt : (Rsti_ir.Ir.slot -> bool) Cache.stage = Cache.stage "elide_pt"

let st_elide_ctx : (Rsti_ir.Ir.slot -> bool) Cache.stage =
  Cache.stage "elide_ctx"

let st_instrument : Rsti_rsti.Instrument.result Cache.stage =
  Cache.stage "instrument"

let st_outcome :
    (Rsti_machine.Interp.outcome * Rsti_machine.Cost.t) Cache.stage =
  Cache.stage "outcome"

let st_attack_surface : Rsti_dataflow.Equiv.result Cache.stage =
  Cache.stage "attack_surface"

(* Every stage's computation is written once, as the [compute] of this
   helper: it consults and fills [st] exactly when [config.cache] is
   set. Dependencies are fetched inside [compute], so they are looked up
   on a miss only. *)
let memo config st key compute =
  if config.cache then Cache.memo st ~key compute else compute ()

(* Keys: the source digest (hashed once, in {!source}) plus the stage's
   own key parts. A stage value built with cache off composes with later
   stages run with cache on. *)
let key (s : source) parts = String.concat "|" (s.digest :: parts)

let source ?(file = "<memory>.c") text =
  { file; text; digest = Digest.to_hex (Digest.string (file ^ "\x00" ^ text)) }

let compile ?(config = default) (s : source) =
  stage_span "pipeline.compile" (fun () -> [ ("file", s.file) ]) @@ fun () ->
  let modul =
    memo config st_compile s.digest (fun () ->
        Rsti_ir.Lower.compile ~file:s.file s.text)
  in
  { src = s; modul }

let analyze ?(config = default) (c : compiled) =
  stage_span "pipeline.analyze" (fun () -> [ ("file", c.src.file) ])
  @@ fun () ->
  let anal =
    memo config st_analysis c.src.digest (fun () ->
        Rsti_sti.Analysis.analyze c.modul)
  in
  { comp = c; anal }

(* The insensitive and cloned solves report under separate stage
   counters; the key carries the mode, so each k is its own artifact. *)
let points_to ?(config = default) ?(mode = Points_to.Insensitive)
    (c : compiled) =
  let mode_s = Points_to.mode_to_string mode in
  stage_span "pipeline.points_to" (fun () ->
      [ ("file", c.src.file); ("mode", mode_s) ])
  @@ fun () ->
  let st =
    match mode with
    | Points_to.Insensitive -> st_points_to
    | Points_to.Cloning _ -> st_points_to_cs
  in
  memo config st (key c.src [ mode_s ]) (fun () ->
      Points_to.analyze ~mode c.modul)

let scope_escape ?(config = default) ?(mode = Points_to.Insensitive)
    (c : compiled) =
  let mode_s = Points_to.mode_to_string mode in
  stage_span "pipeline.scope_escape" (fun () ->
      [ ("file", c.src.file); ("mode", mode_s) ])
  @@ fun () ->
  memo config st_scope (key c.src [ mode_s ]) (fun () ->
      Rsti_dataflow.Scope_escape.analyze
        ~points_to:(points_to ~config ~mode c)
        c.modul)

(* The points-to solution and scope-escape result at one precision, as
   the optional arguments the context-precision proof and the confined
   attack surface take. *)
let confinement ~config mode c =
  let pt = points_to ~config ~mode c in
  (Some pt, Some (scope_escape ~config ~mode c))

(* The static substitution-attack-surface partition for one mechanism.
   [mode = None] is the unconfined (oracle) attacker model; [Some m]
   refines feasibility with points-to confinement and scope escape at
   that precision. *)
let attack_surface ?(config = default) ?mode mech (a : analyzed) =
  let mech_s = RT.mechanism_to_string mech in
  let mode_s =
    match mode with None -> "oracle" | Some m -> Points_to.mode_to_string m
  in
  stage_span "pipeline.attack_surface" (fun () ->
      [ ("file", a.comp.src.file); ("mech", mech_s); ("mode", mode_s) ])
  @@ fun () ->
  memo config st_attack_surface (key a.comp.src [ mech_s; mode_s ])
    (fun () ->
      let points_to, scope =
        match mode with
        | None -> (None, None)
        | Some mode -> confinement ~config mode a.comp
      in
      Rsti_dataflow.Equiv.analyze ?points_to ?scope a.anal a.comp.modul mech)

(* The elision proof at a precision; each precision has its own stage,
   the way {!points_to} splits insensitive and cloned solves. *)
let elide_pred ?(config = default) ?(mode = Elide.Syntactic) (a : analyzed) =
  let proof st confine =
    memo config st (key a.comp.src [ Elide.mode_to_string mode ]) (fun () ->
        let points_to, scope = confine () in
        Elide.elide (Elide.analyze ?points_to ?scope a.anal a.comp.modul))
  in
  match mode with
  | Elide.Off -> fun _ -> false
  | Elide.Syntactic -> proof st_elide (fun () -> (None, None))
  | Elide.With_points_to ->
      proof st_elide_pt (fun () -> (Some (points_to ~config a.comp), None))
  | Elide.With_context k ->
      proof st_elide_ctx (fun () ->
          confinement ~config (Points_to.Cloning k) a.comp)

(* The PAC-typestate validator over an instrumented module: re-checks
   the rewriter's output against the signed-at-rest discipline. Not
   memoized: a full report run never checks one module twice. *)
let validation (i : instrumented) =
  stage_span "pipeline.validate"
    (fun () ->
      [
        ("file", i.stage.comp.src.file);
        ("mech", RT.mechanism_to_string i.mech);
      ])
  @@ fun () ->
  Rsti_dataflow.Validate.check i.stage.anal i.mech
    i.result.Rsti_rsti.Instrument.modul

let instrument ?(config = default) mech (a : analyzed) =
  (* Parts/Nop model toolchains without the whole-program proof; the
     elision stage key stays Off for them so the cache never splits. *)
  let elision =
    if mech = RT.Parts || mech = RT.Nop then Elide.Off else config.elision
  in
  let result =
    stage_span "pipeline.instrument"
      (fun () ->
        [
          ("file", a.comp.src.file);
          ("mech", RT.mechanism_to_string mech);
          ("elision", Elide.mode_to_string elision);
        ])
    @@ fun () ->
    memo config st_instrument
      (key a.comp.src
         [ RT.mechanism_to_string mech; Elide.mode_to_string elision ])
    @@ fun () ->
    let elide =
      if elision = Elide.Off then None
      else Some (elide_pred ~config ~mode:elision a)
    in
    Rsti_rsti.Instrument.instrument ?elide mech a.anal a.comp.modul
  in
  let i = { stage = a; mech; elision; result } in
  if config.validate then begin
    let rep = validation i in
    if not (Rsti_dataflow.Validate.ok rep) then raise (Validation_failed rep)
  end;
  i

(* Run outcomes are memoizable exactly when no attack closure is
   installed: the machine is deterministic, so the outcome is a pure
   function of the module's source digest, the cost record, and the
   machine knobs. Only the base ISA prices go into the key — the
   instrumentation prices (pac, strip, pp, pac_spill) map 1:1 onto
   outcome counters, so a hit under different ones is re-priced
   ({!Rsti_machine.Interp.reprice}) instead of re-simulated. That is
   what makes the PA-cost ablation cheap: one simulation per
   (workload, mechanism) serves the whole sweep. *)
let cost_key (c : Rsti_machine.Cost.t) =
  Printf.sprintf "%d.%d.%d.%d.%d.%d.%d" c.Rsti_machine.Cost.alu
    c.Rsti_machine.Cost.load c.Rsti_machine.Cost.store c.Rsti_machine.Cost.gep
    c.Rsti_machine.Cost.branch c.Rsti_machine.Cost.call
    c.Rsti_machine.Cost.extern_call

(* The body {!run} and {!run_baseline} share: load [modul] into a fresh
   machine and run it; an attack-free run is memoized under [stage_key]
   (what names the module) plus the base prices and the machine knobs. A
   profiled outcome carries sites an unprofiled one lacks, and a
   flight-recorded one carries incidents, so both go into the key. *)
let execute config ~attacks ?fpac ?cfi ?backend ?entry ~profile ~flight
    ?pp_table ~stage_key modul =
  let exec () =
    let vm =
      Rsti_machine.Interp.create ~costs:config.costs ?pp_table ?fpac ?cfi
        ?backend ~profile ~flight modul
    in
    Rsti_machine.Interp.run ~attacks ?entry vm
  in
  if attacks <> [] then exec ()
  else
    let key =
      String.concat "|"
        (stage_key
        @ [
            cost_key config.costs;
            (match fpac with None -> "-" | Some b -> string_of_bool b);
            (match cfi with None -> "-" | Some b -> string_of_bool b);
            (match backend with
            | None | Some `Pac -> "pac"
            | Some `Shadow_mac -> "mac");
            Option.value entry ~default:"main";
            (if profile then "prof" else "-");
            (if flight > 0 then "fl" ^ string_of_int flight else "-");
          ])
    in
    let costs = config.costs in
    let o, priced = memo config st_outcome key (fun () -> (exec (), costs)) in
    if priced == costs || priced = costs then o
    else begin
      Observe.Metrics.incr c_reprices;
      Rsti_machine.Interp.reprice ~from:priced ~to_:costs
        ~pac_spill_charged:(backend <> Some `Shadow_mac)
        o
    end

let run ?(config = default) ?(attacks = []) ?fpac ?backend ?entry
    ?(profile = false) ?(flight = 0) (i : instrumented) =
  stage_span "pipeline.run"
    (fun () ->
      [
        ("file", i.stage.comp.src.file);
        ("mech", RT.mechanism_to_string i.mech);
      ])
  @@ fun () ->
  execute config ~attacks ?fpac ?backend ?entry ~profile ~flight
    ~pp_table:i.result.Rsti_rsti.Instrument.pp_table
    ~stage_key:
      [
        "run";
        i.stage.comp.src.digest;
        RT.mechanism_to_string i.mech;
        Elide.mode_to_string i.elision;
      ]
    i.result.Rsti_rsti.Instrument.modul

(* An uninstrumented module executes no PA/xpac/pp instructions, so on
   top of the key's price-blindness the whole PA-cost ablation shares
   one baseline run per workload (re-pricing it is the identity: every
   instrumentation counter is zero). *)
let run_baseline ?(config = default) ?(attacks = []) ?fpac ?cfi ?backend
    ?entry ?(profile = false) ?(flight = 0) (c : compiled) =
  stage_span "pipeline.run_baseline" (fun () -> [ ("file", c.src.file) ])
  @@ fun () ->
  execute config ~attacks ?fpac ?cfi ?backend ?entry ~profile ~flight
    ~stage_key:[ "base"; c.src.digest ] c.modul

let file (s : source) = s.file
let text (s : source) = s.text
let ir (c : compiled) = c.modul
let compiled_of_analyzed (a : analyzed) = a.comp
let analysis (a : analyzed) = a.anal
let analyzed_ir (a : analyzed) = a.comp.modul
let mechanism (i : instrumented) = i.mech
let elision (i : instrumented) = i.elision
let elided (i : instrumented) = i.elision <> Elide.Off
let result (i : instrumented) = i.result
let instrumented_ir (i : instrumented) = i.result.Rsti_rsti.Instrument.modul
let counts (i : instrumented) = i.result.Rsti_rsti.Instrument.counts
