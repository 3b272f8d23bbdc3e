(* Exact per-layer counts of one pass. Every field is a deterministic
   function of the pass's inputs, so two passes over the same units —
   traced or not, in one process or two — must agree on all of them;
   [gc.major_collections] alone also depends on the heap a pass starts
   from, so it is compared only between processes. *)

type t = {
  mutable instrs : int;
  mutable cycles : int;
  mutable pac_ops : int;
  mutable divergences : int;
  mutable cache_hits : int;
  mutable cache_misses : int;
  mutable source_bytes : int;
  mutable ir_instrs : int;
  mutable pt_iterations : int;
  mutable clones : int;
  mutable scope_escapes : int;
  mutable candidates : int;
  mutable safe_syntactic : int;
  mutable safe_points_to : int;
  mutable safe_context : int;
  mutable sites : int;
  mutable equiv_classes : int;
  mutable lint_findings : int;
  mutable validate_failures : int;
  mutable detected : int;
  mutable incidents : int;
  mutable latencies : int list;
  mutable verdict_mismatches : int;
  mutable minor_words : float;
  mutable major_collections : int;
}

let create () =
  {
    instrs = 0;
    cycles = 0;
    pac_ops = 0;
    divergences = 0;
    cache_hits = 0;
    cache_misses = 0;
    source_bytes = 0;
    ir_instrs = 0;
    pt_iterations = 0;
    clones = 0;
    scope_escapes = 0;
    candidates = 0;
    safe_syntactic = 0;
    safe_points_to = 0;
    safe_context = 0;
    sites = 0;
    equiv_classes = 0;
    lint_findings = 0;
    validate_failures = 0;
    detected = 0;
    incidents = 0;
    latencies = [];
    verdict_mismatches = 0;
    minor_words = 0.;
    major_collections = 0;
  }

let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b

let latency_p50 c =
  Stat.median (Array.of_list (List.rev_map float_of_int c.latencies))

(* (name, value, unit) in a fixed order. *)
let metrics c =
  let i n v u = (n, float_of_int v, u) in
  [
    i "machine.instrs" c.instrs "count";
    i "machine.cycles" c.cycles "count";
    i "machine.pac_ops" c.pac_ops "count";
    i "machine.divergences" c.divergences "count";
    i "engine.cache_hits" c.cache_hits "count";
    i "engine.cache_misses" c.cache_misses "count";
    ( "engine.cache_hit_ratio",
      ratio c.cache_hits (c.cache_hits + c.cache_misses),
      "ratio" );
    ("minic.source_kb", float_of_int c.source_bytes /. 1024., "KB");
    i "ir.instrs" c.ir_instrs "count";
    i "dataflow.points_to_iterations" c.pt_iterations "count";
    i "dataflow.clones" c.clones "count";
    i "dataflow.scope_escapes" c.scope_escapes "count";
    ( "staticcheck.safe_ratio.syntactic",
      ratio c.safe_syntactic c.candidates,
      "ratio" );
    ( "staticcheck.safe_ratio.points-to",
      ratio c.safe_points_to c.candidates,
      "ratio" );
    ( "staticcheck.safe_ratio.context-2",
      ratio c.safe_context c.candidates,
      "ratio" );
    i "rsti.sites" c.sites "count";
    i "dataflow.equiv_classes" c.equiv_classes "count";
    i "staticcheck.lint_findings" c.lint_findings "count";
    i "dataflow.validate_failures" c.validate_failures "count";
    i "attacks.detected" c.detected "count";
    i "attacks.incidents" c.incidents "count";
    ("attacks.latency_instrs.p50", latency_p50 c, "instrs");
    i "attacks.verdict_mismatches" c.verdict_mismatches "count";
    ("gc.minor_mw", c.minor_words /. 1e6, "Mwords");
    i "gc.major_collections" c.major_collections "count";
  ]

(* [c] with its three failure counters summed over [all] passes. Each
   failed unit bumps exactly one of them, so the sums add up to the
   run's [failed]. *)
let with_failures_of all c =
  let sum f = List.fold_left (fun acc x -> acc + f x) 0 all in
  {
    c with
    divergences = sum (fun x -> x.divergences);
    validate_failures = sum (fun x -> x.validate_failures);
    verdict_mismatches = sum (fun x -> x.verdict_mismatches);
  }

(* Names whose values differ between two passes, with both values.
   [gc.major_collections] is skipped: two passes of one process start
   from different heaps. *)
let diff a b =
  List.filter_map
    (fun ((n, va, _), (_, vb, _)) ->
      if va = vb || n = "gc.major_collections" then None else Some (n, va, vb))
    (List.combine (metrics a) (metrics b))
