(* Tests for the telemetry layer: the span recorder (nesting, the
   disabled no-op contract, well-formed Chrome trace output), the
   metrics registry (roundtrip through its JSON document), the
   determinism contract (span name-tree and non-volatile counters are
   identical whether a suite runs on one domain or four), the exact
   hot-site profile (sites partition every global counter, and a run
   served from the cache at another PA price matches a fresh
   simulation per-site), the flight recorder's pinned stamps, the
   per-stage cache statistics, the
   histogram percentiles, the sorted-JSONL event log (byte-identical at any job
   count, including the full incident collection), the incident
   coverage invariant (every detected attack maps into the static
   attack surface), and a qcheck property tying flight-recorder
   latency attribution to the exact profiler's counters. *)

module Observe = Rsti_observe.Observe
module Span = Observe.Span
module M = Observe.Metrics
module J = Rsti_util.Json
module Pipeline = Rsti_engine.Pipeline
module Scheduler = Rsti_engine.Scheduler
module Cache = Rsti_engine.Cache
module Interp = Rsti_machine.Interp
module Workload = Rsti_workloads.Workload
module RT = Rsti_sti.Rsti_type
module Cost = Rsti_machine.Cost
module Instrument = Rsti_rsti.Instrument

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* Enable span recording around [f], restoring the disabled default
   (and an empty record list) whatever happens. *)
let with_spans f =
  Observe.set_enabled true;
  Span.reset ();
  Fun.protect
    ~finally:(fun () ->
      Observe.set_enabled false;
      Span.reset ())
    f

(* ------------------------------ spans ------------------------------ *)

let test_span_records () =
  with_spans (fun () ->
      Span.with_ "outer" (fun () ->
          Span.with_ ~attrs:[ ("k", "v") ] "inner" (fun () -> ());
          Span.with_ "inner" (fun () -> ()));
      let rs = Span.records () in
      checki "three spans recorded" 3 (List.length rs);
      let outer = List.find (fun r -> r.Span.name = "outer") rs in
      checki "outer is a root" (-1) outer.Span.parent;
      List.iter
        (fun r ->
          if r.Span.name = "inner" then
            checki "inner nests under outer" outer.Span.id r.Span.parent)
        rs;
      let inner = List.find (fun r -> r.Span.name = "inner") rs in
      checkb "attribute recorded" true (List.mem ("k", "v") inner.Span.attrs);
      List.iter
        (fun r ->
          checkb "span interval is non-negative" true
            (Int64.compare r.Span.t_end_ns r.Span.t_start_ns >= 0))
        rs)

let test_disabled_noop () =
  Observe.set_enabled false;
  Span.reset ();
  let sp = Span.enter "nope" in
  checkb "enter returns the preallocated none handle" true (sp == Span.none);
  Span.add_attr sp "k" "v";
  Span.exit sp;
  checki "nothing recorded while disabled" 0 (List.length (Span.records ()))

(* ----------------------------- metrics ----------------------------- *)

let test_metrics_registry () =
  M.reset ();
  let c = M.counter "test.alpha" in
  M.incr c;
  M.add c 4;
  checki "counter accumulates" 5 (M.value c);
  checki "registration is idempotent" 5 (M.value (M.counter "test.alpha"));
  let g = M.gauge "test.gamma" in
  M.set_gauge g 42;
  checki "gauge holds last value" 42 (M.gauge_value g);
  let h = M.histogram "test.hist" in
  M.observe h 1.5;
  M.observe h 2.5;
  (match J.of_string (J.to_string (M.to_json ())) with
  | Error e -> Alcotest.failf "metrics JSON does not parse: %s" e
  | Ok (J.Obj fields) -> (
      checkb "schema tag" true
        (List.assoc "schema" fields = J.Str "rsti-metrics/1");
      (match List.assoc "counters" fields with
      | J.Obj cs ->
          checkb "counter in document" true
            (List.assoc "test.alpha" cs = J.Int 5)
      | _ -> Alcotest.fail "counters is not an object");
      match List.assoc "histograms" fields with
      | J.Obj hs -> (
          match List.assoc "test.hist" hs with
          | J.Obj fs ->
              checkb "histogram count" true (List.assoc "count" fs = J.Int 2)
          | _ -> Alcotest.fail "histogram entry is not an object")
      | _ -> Alcotest.fail "histograms is not an object")
  | Ok _ -> Alcotest.fail "metrics JSON is not an object");
  M.reset ();
  checki "reset zeroes values" 0 (M.value c)

(* --------------------------- chrome trace --------------------------- *)

let test_chrome_trace_wellformed () =
  with_spans (fun () ->
      Cache.clear ();
      let w = List.hd Rsti_workloads.Nbench.all in
      let src = Pipeline.source ~file:"trace.c" w.Workload.source in
      ignore
        (Pipeline.run
           (Pipeline.instrument RT.Stwc
              (Pipeline.analyze (Pipeline.compile src))));
      match J.of_string (J.to_string (Span.chrome_trace ())) with
      | Error e -> Alcotest.failf "trace does not parse: %s" e
      | Ok (J.Obj fields) -> (
          match List.assoc_opt "traceEvents" fields with
          | Some (J.List evs) ->
              checkb "events recorded" true (evs <> []);
              List.iter
                (function
                  | J.Obj fs ->
                      List.iter
                        (fun k ->
                          checkb (k ^ " field present") true
                            (List.mem_assoc k fs))
                        [ "name"; "cat"; "ph"; "ts"; "dur"; "pid"; "tid" ];
                      checkb "complete (\"X\") event" true
                        (List.assoc "ph" fs = J.Str "X")
                  | _ -> Alcotest.fail "event is not an object")
                evs
          | _ -> Alcotest.fail "no traceEvents list")
      | Ok _ -> Alcotest.fail "trace document is not an object")

(* --------------------- determinism across jobs ---------------------- *)

(* The claim split (own vs. steal), the per-worker task counters, and
   which racing domain gets charged the duplicated recomputation are
   scheduling noise by construction; everything else must be identical
   for any job count. *)
let volatile name =
  let prefixed p =
    String.length name >= String.length p && String.sub name 0 (String.length p) = p
  in
  (prefixed "scheduler." && name <> "scheduler.tasks")
  || Filename.check_suffix name ".duplicated"

let span_paths () =
  let rs = Span.records () in
  let tbl = Hashtbl.create 64 in
  List.iter (fun r -> Hashtbl.replace tbl r.Span.id r) rs;
  let rec path r =
    match Hashtbl.find_opt tbl r.Span.parent with
    | Some p -> path p ^ "/" ^ r.Span.name
    | None -> r.Span.name
  in
  List.sort compare (List.map path rs)

let telemetry_run ~jobs () =
  Observe.reset ();
  Cache.clear ();
  let ws = List.filteri (fun i _ -> i < 3) Rsti_workloads.Nbench.all in
  ignore
    (Scheduler.map ~jobs
       (fun (w : Workload.t) ->
         let src = Pipeline.source ~file:(w.name ^ ".c") w.source in
         let i =
           Pipeline.instrument RT.Stwc
             (Pipeline.analyze (Pipeline.compile src))
         in
         (Pipeline.run i).Interp.cycles)
       ws);
  let counters =
    List.filter (fun (n, _) -> not (volatile n)) (M.counters ())
  in
  (span_paths (), counters)

let test_telemetry_identical_across_jobs () =
  Observe.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Observe.set_enabled false;
      Observe.reset ())
    (fun () ->
      let paths1, counters1 = telemetry_run ~jobs:1 () in
      let paths4, counters4 = telemetry_run ~jobs:4 () in
      checkb "span name-tree identical jobs=1 vs 4" true (paths1 = paths4);
      checki "same counter count" (List.length counters1)
        (List.length counters4);
      List.iter2
        (fun (n1, v1) (n2, v2) ->
          checkb (Printf.sprintf "counter name %s" n1) true (n1 = n2);
          checki (Printf.sprintf "counter %s jobs=1 vs 4" n1) v1 v2)
        counters1 counters4)

(* ---------------------------- profiler ------------------------------ *)

(* Two runs of one program agree on all that does not depend on the
   flight recorder: status, cycles, every counter, output and both call
   profiles. *)
let check_same_outcome name (a : Interp.outcome) (b : Interp.outcome) =
  checkb (name ^ ": status") true (a.Interp.status = b.Interp.status);
  checki (name ^ ": cycles") a.Interp.cycles b.Interp.cycles;
  List.iter
    (fun (field, get) ->
      checki (name ^ ": " ^ field) (get a.Interp.counts) (get b.Interp.counts))
    [
      ("instrs", fun (c : Interp.counts) -> c.instrs);
      ("loads", fun c -> c.loads);
      ("stores", fun c -> c.stores);
      ("pac_signs", fun c -> c.pac_signs);
      ("pac_auths", fun c -> c.pac_auths);
      ("pac_strips", fun c -> c.pac_strips);
      ("pp_calls", fun c -> c.pp_calls);
    ];
  Alcotest.(check string) (name ^ ": output") a.Interp.output b.Interp.output;
  checkb (name ^ ": call profile") true (a.Interp.call_profile = b.Interp.call_profile);
  checkb (name ^ ": extern profile") true
    (a.Interp.extern_profile = b.Interp.extern_profile)

(* The exact profile's partition invariant: an outcome's sites sum to
   its cycles, instructions, strips and pp calls, and in a run without
   pp ops their pac charges sum to the signs and auths. *)
let check_partition name (o : Interp.outcome) =
  let sites = Interp.sites o in
  let sum f = List.fold_left (fun acc s -> acc + f s) 0 sites in
  let c = o.Interp.counts in
  checki (name ^ ": cycles partition") o.Interp.cycles (sum (fun s -> s.Interp.s_cycles));
  checki (name ^ ": instrs partition") c.Interp.instrs (sum (fun s -> s.Interp.s_instrs));
  checki (name ^ ": strip partition") c.Interp.pac_strips (sum (fun s -> s.Interp.s_strips));
  checki (name ^ ": pp partition") c.Interp.pp_calls (sum (fun s -> s.Interp.s_pp_calls));
  if c.Interp.pp_calls = 0 then
    checki (name ^ ": pac-charge partition")
      (c.Interp.pac_signs + c.Interp.pac_auths)
      (sum (fun s -> s.Interp.s_pac_charges))

(* The partition invariant for one kernel of each suite under each
   Figure-9 configuration; the flight recorder changes neither the run
   nor its profile. *)
let test_profiler_partitions_totals () =
  let kernels =
    List.map List.hd
      Rsti_workloads.
        [ Spec2006.all; Spec2017.all; Nbench.all; Pytorch.all; Nginx.all ]
  in
  let config = { Pipeline.default with Pipeline.cache = false } in
  List.iter
    (fun (w : Workload.t) ->
      let src = Pipeline.source ~file:(w.name ^ ".c") w.source in
      let a = Pipeline.analyze ~config (Pipeline.compile ~config src) in
      List.iter
        (fun mech ->
          let i = Pipeline.instrument ~config mech a in
          let config =
            if mech = RT.Parts then
              { config with
                Pipeline.costs = { Cost.parts_codegen with pac = Cost.default.pac } }
            else config
          in
          let o = Pipeline.run ~config i in
          let name what =
            Printf.sprintf "%s/%s: %s" w.name (RT.mechanism_to_string mech)
              what
          in
          checkb (name "profile non-empty") true (Interp.sites o <> []);
          (* a pp op's sign or auth is priced at [pp], not [pac]; no
             Figure-9 build runs one *)
          checki (name "pp-free") 0 o.Interp.counts.Interp.pp_calls;
          check_partition (name "plain") o;
          let recorded = Pipeline.run ~config ~flight:16 i in
          check_same_outcome (name "recording does not change the outcome") o recorded;
          checkb (name "recording does not change the profile") true
            (Interp.sites recorded = Interp.sites o))
        [ RT.Nop; RT.Stwc; RT.Stc; RT.Stl; RT.Parts ])
    kernels

(* What a run must come to: its status ("exit N" or the trap), cycles,
   the seven counts in [Interp.counts] order, and both call profiles.
   The values below were taken from a machine that stepped and charged
   each instruction as it ran. *)
type pinned = string * int * int list * (string * int) list * (string * int) list

let check_pinned name ((status, cycles, counts, calls, externs) : pinned) (o : Interp.outcome) =
  let c = o.Interp.counts in
  Alcotest.(check string) (name ^ ": status") status
    (match o.Interp.status with
    | Interp.Exited n -> Printf.sprintf "exit %Ld" n
    | Interp.Trapped t -> Interp.trap_to_string t);
  checki (name ^ ": cycles") cycles o.Interp.cycles;
  Alcotest.(check (list int)) (name ^ ": counts") counts
    Interp.[ c.instrs; c.loads; c.stores; c.pac_signs; c.pac_auths; c.pac_strips; c.pp_calls ];
  let profile = Alcotest.(list (pair string int)) in
  Alcotest.check profile (name ^ ": call profile") calls o.Interp.call_profile;
  Alcotest.check profile (name ^ ": extern profile") externs o.Interp.extern_profile

(* Runs [modul] plain and flight-recorded: the plain run comes to
   [want] and its sites partition it, and the recorded run agrees with
   it. Returns the plain outcome. *)
let observed ?(pp_table = []) ?(attacks = []) name want modul =
  let run flight = Interp.run ~attacks (Interp.create ~pp_table ~flight modul) in
  let plain = run 0 in
  check_pinned name want plain;
  check_partition name plain;
  check_same_outcome (name ^ " flight-recorded") plain (run 16);
  plain

let compiled name src = Pipeline.compile (Pipeline.source ~file:(name ^ ".c") src)

(* An exit() from nested calls: every segment it entered has run to its
   end, the exit call being the last instruction of its segment. *)
let exit_nested_src =
  {|extern void exit(int code);
extern int printf(const char *fmt, ...);
int depth(int n) {
  if (n == 0) { printf("bye\n"); exit(7); }
  int r = depth(n - 1);
  return r + 1;
}
int main(void) { printf("%d\n", depth(3)); return 0; }
|}

let main_only = [ ("__rsti_global_init", 1); ("main", 1) ]

(* Runs that end inside a block, where the machine takes back what it
   charged for the instructions after the one that trapped, and an
   exit() from nested calls. *)
let test_observed_traps_agree () =
  let agree name want src = observed name want (Pipeline.ir (compiled name src)) in
  ignore
    (agree "division by zero"
       ("division by zero in ratio", 219, [ 103; 29; 22; 0; 0; 0; 0 ],
        ("ratio", 4) :: main_only, [])
       {|int ratio(int a, int b) {
  int q = a / b;
  int r = q * 2;
  return r + 1;
}
int main(void) {
  int s = 0;
  for (int i = 3; i >= 0; i--) { s = s + ratio(12, i); }
  return s;
}
|});
  ignore
    (agree "unmapped load"
       ("memory fault in peek: unmapped address 0x0", 74, [ 27; 8; 7; 0; 0; 0; 0 ],
        ("peek", 2) :: main_only, [])
       {|long peek(long *p) {
  long v = *p;
  long w = v + 1;
  return w;
}
int main(void) {
  long x = 5;
  long *bad = 0;
  long s = peek(&x);
  s = s + peek(bad);
  return (int) s;
}
|});
  ignore
    (agree "stack overflow"
       ("stack overflow", 762623, [ 349529; 95325; 63551; 0; 0; 0; 0 ],
        ("boom", 31776) :: main_only, [])
       {|int boom(int n) { int pad[64]; pad[0] = n; return boom(n + pad[0]); }
int main(void) { return boom(1); }
|});
  let o =
    agree "exit"
      ("exit 7", 103, [ 38; 7; 4; 0; 0; 0; 0 ], ("depth", 4) :: main_only,
       [ ("exit", 1); ("printf", 1) ])
      exit_nested_src
  in
  Alcotest.(check string) "exit: output" "bye\n" o.Interp.output;
  (* an intruder swaps a raw pointer into a signed slot: the next load
     of it fails authentication mid-block *)
  let fpac =
    Pipeline.(
      instrument RT.Stl
        (analyze
           (compiled "fpac"
              {|long cell;
long *victim;
void mark(void) { }
int main(void) {
  victim = &cell;
  mark();
  long v = *victim;
  return (int) v;
}
|})))
  in
  let raw =
    {
      Interp.trigger = Interp.On_call ("mark", 1);
      action =
        (fun intr -> intr.write_word (intr.global_addr "victim") (intr.global_addr "cell"));
    }
  in
  ignore
    (observed "FPAC" ~attacks:[ raw ]
       ( "PAC authentication failure in main (modifier 0xf121901d8b0810bf, pointer \
          0x10000000): FPAC trap",
         40, [ 6; 1; 1; 1; 1; 0; 0 ], main_only @ [ ("mark", 1) ], [] )
       (Pipeline.result fpac).Instrument.modul);
  (* a catalog attack with its hooks *)
  let sc = Rsti_attacks.Catalog.cve_libtiff in
  let r =
    Pipeline.(
      result
        (instrument RT.Stwc
           (analyze (compiled sc.Rsti_attacks.Scenario.id sc.Rsti_attacks.Scenario.program))))
  in
  let o =
    observed sc.Rsti_attacks.Scenario.id ~attacks:sc.Rsti_attacks.Scenario.attacks
      ~pp_table:r.Instrument.pp_table
      ( "PAC authentication failure in TIFFWriteScanline (modifier 0x67ecf2f5419efdd9, \
         pointer 0xf002b0): FPAC trap",
        250, [ 78; 24; 17; 3; 4; 1; 0 ],
        [ ("TIFFWriteScanline", 2); ("TIFFOpen", 1); ("_TIFFNoRowEncode", 1);
          ("_TIFFSetDefaultCompressionState", 1) ] @ main_only,
        [ ("malloc", 2); ("printf", 1) ] )
      r.Instrument.modul
  in
  checkb "catalog attack detected" true (Interp.detected o)

(* The flight recorder stamps each PA op from its place in its segment.
   An intruder swaps a raw pointer into [victim] at the call of [mark];
   the auth at line 16 then fails, after nine ops in segments that end
   at a call, at a branch and at the failing op's own block's return.
   Every stamp is pinned: an FPAC trap, a corrupted dereference without
   FPAC, and the same run with the step limit cutting the failing op's
   segment right after it. The values were taken from a machine that
   stepped and charged each instruction as it ran. *)
let test_flight_stamps_pinned () =
  let r =
    Pipeline.(
      result
        (instrument RT.Stl
           (analyze
              (compiled "stamps"
                 {|long cell;
long other;
long *victim;
long *spare;
void mark(void) { }
long peek(long *p) { return *p; }
int main(void) {
  long s = 0;
  victim = &cell;
  spare = &other;
  for (int i = 0; i < 2; i++) {
    s = s + peek(spare);
    s = s + *victim;
  }
  mark();
  long v = *victim;
  return (int) (v + s);
}
|}))))
  in
  let raw =
    {
      Interp.trigger = Interp.On_call ("mark", 1);
      action =
        (fun intr -> intr.write_word (intr.global_addr "victim") (intr.global_addr "cell"));
    }
  in
  let window =
    [ ("sign", 9, 23, 3); ("sign", 10, 32, 5); ("auth", 12, 56, 15); ("resign", 12, 70, 16);
      ("auth", 13, 102, 26); ("auth", 12, 134, 40); ("resign", 12, 148, 41);
      ("auth", 13, 180, 51); ("auth", 16, 217, 66) ]
  in
  let calls = [ ("peek", 2); ("__rsti_global_init", 1); ("main", 1); ("mark", 1) ] in
  let fault =
    "memory fault in main: non-canonical address 0x60000010000000 (corrupted pointer?) [after \
     PAC authentication failure]"
  in
  List.iter
    (fun (name, fpac, step_limit, want) ->
      let run flight =
        Interp.run ~attacks:[ raw ] ?step_limit
          (Interp.create ~fpac ~flight ~pp_table:r.Instrument.pp_table r.Instrument.modul)
      in
      let o = run 16 in
      check_pinned name want o;
      check_partition name o;
      check_same_outcome (name ^ " plain") o (run 0);
      match o.Interp.incidents with
      | [ inc ] ->
          Alcotest.(check (list (pair string (pair int (pair int int)))))
            (name ^ ": window") (List.map (fun (k, l, c, i) -> (k, (l, (c, i)))) window)
            (List.map
               (fun (op : Interp.pac_op) ->
                 ( Interp.op_kind_to_string op.Interp.op_kind,
                   (op.Interp.op_line, (op.Interp.op_cycle, op.Interp.op_instr)) ))
               inc.Interp.inc_window);
          checki (name ^ ": incident line") 16 inc.Interp.inc_line;
          checki (name ^ ": incident cycle") 217 inc.Interp.inc_cycle;
          checki (name ^ ": incident instr") 66 inc.Interp.inc_instr;
          checkb (name ^ ": corruption point") true (inc.Interp.inc_corrupt = Some (199, 63));
          checkb (name ^ ": latencies") true
            (inc.Interp.inc_latency_cycles = Some 18 && inc.Interp.inc_latency_instrs = Some 3)
      | l -> Alcotest.failf "%s: %d incidents" name (List.length l))
    [
      ( "FPAC", true, None,
        ( "PAC authentication failure in main (modifier 0xf121901d8b0810a7, pointer \
           0x10000000): FPAC trap",
          217, [ 66; 20; 12; 4; 7; 0; 0 ], calls, [] ) );
      ("non-FPAC", false, None, (fault, 220, [ 67; 21; 12; 4; 7; 0; 0 ], calls, []));
      ( "non-FPAC cut at the failing op", false, Some 66,
        ("step limit exceeded", 217, [ 67; 20; 12; 4; 7; 0; 0 ], calls, []) );
    ]

(* A run served from the cache at one PA price is never served at
   another: the outcome key holds the whole cost record, so the run
   served at each price equals a fresh simulation's, per-site. *)
let test_profile_reprice_exact () =
  Cache.clear ();
  let w = List.hd Rsti_workloads.Nbench.all in
  let src = Pipeline.source ~file:"prof_reprice.c" w.Workload.source in
  let a = Pipeline.analyze (Pipeline.compile src) in
  let i = Pipeline.instrument RT.Stwc a in
  let config pac =
    {
      Pipeline.default with
      Pipeline.costs = Rsti_machine.Cost.(with_pac default pac);
    }
  in
  ignore (Pipeline.run ~config:(config 7) i);
  List.iter
    (fun pac ->
      let served = Pipeline.run ~config:(config pac) i in
      let fresh =
        Pipeline.run ~config:{ (config pac) with Pipeline.cache = false } i
      in
      checki
        (Printf.sprintf "cycles at pac=%d" pac)
        fresh.Interp.cycles served.Interp.cycles;
      checkb
        (Printf.sprintf "per-site profile at pac=%d" pac)
        true
        (Interp.sites served = Interp.sites fresh);
      check_partition (Printf.sprintf "served at pac=%d" pac) served)
    [ 3; 12 ]

(* ------------------------- per-stage cache -------------------------- *)

let test_cache_stage_stats () =
  Cache.clear ();
  let w = List.hd Rsti_workloads.Nbench.all in
  let src = Pipeline.source ~file:"stage.c" w.Workload.source in
  let go () = Pipeline.analyze (Pipeline.compile src) in
  ignore (go ());
  ignore (go ());
  let st = Cache.stage_stats () in
  checkb "stages in pipeline order" true
    (List.map fst st
    = [
        "compile";
        "analysis";
        "points_to";
        "points_to_cs";
        "scope_escape";
        "elide";
        "elide_pt";
        "elide_ctx";
        "instrument";
        "outcome";
        "attack_surface";
      ]);
  let find n = List.assoc n st in
  checki "one compile miss" 1 (find "compile").Cache.misses;
  checkb "compile hit on the second pass" true
    ((find "compile").Cache.hits >= 1);
  checki "one analysis miss" 1 (find "analysis").Cache.misses;
  let agg = Cache.stats () in
  checki "aggregate hits = stage sum" agg.Cache.hits
    (List.fold_left (fun acc (_, s) -> acc + s.Cache.hits) 0 st);
  checki "aggregate misses = stage sum" agg.Cache.misses
    (List.fold_left (fun acc (_, s) -> acc + s.Cache.misses) 0 st);
  checki "aggregate duplicated = stage sum" agg.Cache.duplicated
    (List.fold_left (fun acc (_, s) -> acc + s.Cache.duplicated) 0 st)

(* --------------------- metrics percentiles -------------------------- *)

(* The histogram's p50/p90/p99 use the same type-7 quantile as
   Rsti_util.Stats, so the JSON summaries agree with the report
   tables. *)
let test_metrics_percentiles () =
  M.reset ();
  let h = M.histogram "test.lat" in
  (* insert out of order; percentile must sort *)
  List.iter (fun i -> M.observe h (float_of_int i)) [ 50; 10; 40; 20; 30 ];
  let checkf what exp got =
    Alcotest.(check (float 1e-9)) what exp got
  in
  checkf "p50 of 10..50" 30.0 (M.percentile h 0.5);
  checkf "p50 matches Stats.quantile"
    (Rsti_util.Stats.quantile 0.5 [ 10.; 20.; 30.; 40.; 50. ])
    (M.percentile h 0.5);
  checkf "p90 matches Stats.quantile"
    (Rsti_util.Stats.quantile 0.9 [ 10.; 20.; 30.; 40.; 50. ])
    (M.percentile h 0.9);
  checkb "empty histogram percentile is nan" true
    (Float.is_nan (M.percentile (M.histogram "test.empty") 0.5));
  (match M.to_json () with
  | J.Obj fields -> (
      match List.assoc "histograms" fields with
      | J.Obj hs -> (
          match List.assoc "test.lat" hs with
          | J.Obj fs ->
              checkb "p50 in document" true
                (List.assoc "p50" fs = J.Float 30.0);
              checkb "p90 in document" true (List.mem_assoc "p90" fs);
              checkb "p99 in document" true (List.mem_assoc "p99" fs)
          | _ -> Alcotest.fail "histogram entry is not an object")
      | _ -> Alcotest.fail "histograms is not an object")
  | _ -> Alcotest.fail "metrics JSON is not an object");
  M.reset ()

(* --------------------------- event log ------------------------------ *)

let jsonl_lines () =
  String.split_on_char '\n' (Observe.Events.to_jsonl ())
  |> List.filter (fun l -> l <> "")

let test_events_jsonl () =
  Observe.Events.reset ();
  (* the sink is not gated on Observe.enabled *)
  Observe.set_enabled false;
  Observe.Events.emit ~cat:"zeta" ~name:"b" [ ("k", J.Int 2) ];
  Observe.Events.emit ~cat:"alpha" ~name:"a" [ ("k", J.Int 1) ];
  checki "two events buffered" 2 (Observe.Events.count ());
  (match jsonl_lines () with
  | header :: rest ->
      checkb "header carries schema and count" true
        (header = {|{"schema":"rsti-events/1","events":2}|});
      checkb "lines lexicographically sorted" true
        (rest = List.sort compare rest);
      List.iter
        (fun l ->
          match J.of_string l with
          | Ok (J.Obj fs) ->
              checkb "cat first" true (fst (List.hd fs) = "cat")
          | _ -> Alcotest.fail "event line does not parse")
        rest
  | [] -> Alcotest.fail "empty document");
  Observe.Events.reset ();
  checki "reset drops the buffer" 0 (Observe.Events.count ())

(* The determinism contract end to end: the full incident collection's
   event log is byte-identical at one worker domain and four. *)
let test_events_identical_across_jobs () =
  let doc jobs =
    Observe.Events.reset ();
    Cache.clear ();
    Scheduler.set_default_jobs jobs;
    let cov = Rsti_attacks.Incident.collect () in
    Scheduler.clear_default_jobs ();
    Rsti_attacks.Incident.emit_events cov;
    let d = Observe.Events.to_jsonl () in
    Observe.Events.reset ();
    d
  in
  let d1 = doc 1 and d4 = doc 4 in
  checkb "event log byte-identical jobs=1 vs 4" true (String.equal d1 d4)

(* ------------------------ incident coverage ------------------------- *)

(* The acceptance invariant: every Detected verdict across the Table-1/
   Table-2 catalogs yields exactly one incident (FPAC traps on the first
   failing auth) that maps into the static attack-surface graph. *)
let test_incident_coverage_invariant () =
  Cache.clear ();
  let module Incident = Rsti_attacks.Incident in
  let module Scenario = Rsti_attacks.Scenario in
  let cov = Incident.collect () in
  checkb "verdict OK" true (Incident.ok cov);
  checki "zero unmapped incidents" 0 cov.Incident.cov_unmapped;
  checki "no detection without a record" 0
    (List.length cov.Incident.cov_missing);
  checki "one incident per detection (FPAC)" cov.Incident.cov_detected
    cov.Incident.cov_incidents;
  List.iter
    (fun (r : Incident.run_row) ->
      checki
        (Printf.sprintf "%s/%s: records match verdict" r.Incident.rr_scenario
           (RT.mechanism_to_string r.Incident.rr_mech))
        (if r.Incident.rr_verdict = Scenario.Detected then 1 else 0)
        (List.length r.Incident.rr_records))
    cov.Incident.cov_runs;
  (* a substitution replay's incident observes the donor's signer and
     maps it to a static class; a raw overwrite observes none *)
  let find sid mech =
    List.find
      (fun (r : Incident.record) ->
        r.Incident.r_scenario = sid && r.Incident.r_mech = mech)
      cov.Incident.cov_records
  in
  let replay = find "sub-same-rsti" RT.Stl in
  checkb "replay incident observes its signer" true
    (replay.Incident.r_incident.Interp.inc_signer <> None);
  checkb "replay signer maps to a donor class" true
    (replay.Incident.r_donor_classes <> []);
  let raw = find "newton-cscfi" RT.Stwc in
  checkb "raw overwrite has no signer" true
    (raw.Incident.r_incident.Interp.inc_signer = None);
  List.iter
    (fun (r : Incident.record) ->
      let inc = r.Incident.r_incident in
      checkb
        (Printf.sprintf "%s/%s: latency attributed" r.Incident.r_scenario
           (RT.mechanism_to_string r.Incident.r_mech))
        true
        (match inc.Interp.inc_latency_cycles with
        | Some l -> l > 0
        | None -> false);
      checkb "window ends with the failing op" true
        (match List.rev inc.Interp.inc_window with
        | op :: _ -> (not op.Interp.op_ok) && op.Interp.op_cycle = inc.Interp.inc_cycle
        | [] -> false))
    cov.Incident.cov_records

(* Latency attribution vs the exact profile, over random catalog picks:
   the corrupting store and the failing auth are both stamped with the
   machine's cycle/instruction counters, so the latency is their exact
   difference and can never exceed the run's totals, which its sites
   partition. *)
let prop_incident_latency_consistent =
  let scenarios =
    Rsti_attacks.Catalog.all
    @ List.map fst Rsti_attacks.Substitution.expected
    @ List.map fst Rsti_attacks.Memory_safety.expected
  in
  let mechs = Rsti_attacks.Incident.mechanisms in
  QCheck.Test.make ~name:"incident: latency consistent with profiler"
    ~count:16
    QCheck.(pair (int_range 0 (List.length scenarios - 1))
              (int_range 0 (List.length mechs - 1)))
    (fun (si, mi) ->
      let sc = List.nth scenarios si and mech = List.nth mechs mi in
      let config = { Pipeline.default with Pipeline.cache = false } in
      let i =
        Pipeline.instrument ~config mech
          (Pipeline.analyze ~config
             (Pipeline.compile ~config
                (Pipeline.source ~file:(sc.Rsti_attacks.Scenario.id ^ ".c")
                   sc.Rsti_attacks.Scenario.program)))
      in
      let o =
        Pipeline.run ~config ~attacks:sc.Rsti_attacks.Scenario.attacks
          ~flight:8 i
      in
      check_partition "replay" o;
      List.iter
        (fun (inc : Interp.incident) ->
          checkb "incident cycle within run" true
            (inc.Interp.inc_cycle <= o.Interp.cycles);
          checkb "incident instr within run" true
            (inc.Interp.inc_instr <= o.Interp.counts.Interp.instrs);
          (match (inc.Interp.inc_corrupt, inc.Interp.inc_latency_cycles,
                  inc.Interp.inc_latency_instrs) with
          | Some (cc, ci), Some lc, Some li ->
              checki "cycle latency is the exact delta" lc
                (inc.Interp.inc_cycle - cc);
              checki "instr latency is the exact delta" li
                (inc.Interp.inc_instr - ci);
              checkb "latency non-negative" true (lc >= 0 && li >= 0);
              checkb "latency bounded by profiler totals" true
                (lc <= o.Interp.cycles
                && li <= o.Interp.counts.Interp.instrs)
          | None, None, None -> () (* no corruption point: no latency *)
          | _ -> Alcotest.fail "latency fields inconsistent");
          let cycles_mono =
            let rec go last = function
              | [] -> true
              | (op : Interp.pac_op) :: tl ->
                  op.Interp.op_cycle >= last && go op.Interp.op_cycle tl
            in
            go 0 inc.Interp.inc_window
          in
          checkb "flight window cycles non-decreasing" true cycles_mono)
        o.Interp.incidents;
      true)

(* The flight recorder remembers the signer of at most
   [Interp.signers_cap] distinct signed values a run: a replayed value
   signed before the table filled still names its signer, one first
   signed after it reads as a raw overwrite. *)
let test_signers_bounded () =
  let n = Interp.signers_cap + 100 in
  let src =
    Printf.sprintf
      {|long arr[%d];
long *first;
long *last;
long *victim;
void mark(void) { }
int main(void) {
  first = &arr[0];
  for (int i = 1; i < %d; i++) { last = &arr[i]; }
  victim = &arr[0];
  mark();
  return (int) *victim;
}
|}
      n n
  in
  let inst =
    Pipeline.(instrument RT.Stl (analyze (compile (source ~file:"signers.c" src))))
  in
  let replay from =
    let atk =
      {
        Interp.trigger = Interp.On_call ("mark", 1);
        action =
          (fun intr ->
            intr.write_word (intr.global_addr "victim")
              (intr.read_word (intr.global_addr from)));
      }
    in
    match (Pipeline.run ~flight:4 ~attacks:[ atk ] inst).Interp.incidents with
    | [ inc ] -> inc
    | l -> Alcotest.failf "replay of %s: %d incidents" from (List.length l)
  in
  let first = replay "first" and last = replay "last" in
  checkb "signed before the table filled: signer named" true
    (match first.Interp.inc_signer with
    | Some op -> op.Interp.op_result = first.Interp.inc_ptr
    | None -> false);
  checkb "first signed after it: no signer" true (last.Interp.inc_signer = None)

let tests =
  [
    Alcotest.test_case "span: nesting and records" `Quick test_span_records;
    Alcotest.test_case "span: disabled is a no-op" `Quick test_disabled_noop;
    Alcotest.test_case "metrics: registry roundtrip" `Quick
      test_metrics_registry;
    Alcotest.test_case "trace: well-formed Chrome JSON" `Quick
      test_chrome_trace_wellformed;
    Alcotest.test_case "determinism: telemetry jobs=1 vs 4" `Quick
      test_telemetry_identical_across_jobs;
    Alcotest.test_case "profiler: sites partition totals" `Slow
      test_profiler_partitions_totals;
    Alcotest.test_case "profiler: cache re-pricing exact per-site" `Quick
      test_profile_reprice_exact;
    Alcotest.test_case "observed: traps and exit alike plain, profiled, recorded"
      `Quick test_observed_traps_agree;
    Alcotest.test_case "flight: stamps pinned across segments" `Quick
      test_flight_stamps_pinned;
    Alcotest.test_case "cache: per-stage statistics" `Quick
      test_cache_stage_stats;
    Alcotest.test_case "metrics: histogram percentiles" `Quick
      test_metrics_percentiles;
    Alcotest.test_case "events: sorted deterministic JSONL" `Quick
      test_events_jsonl;
    Alcotest.test_case "events: incident log jobs=1 vs 4" `Slow
      test_events_identical_across_jobs;
    Alcotest.test_case "incident: coverage maps every detection" `Slow
      test_incident_coverage_invariant;
    Alcotest.test_case "flight: signers table bounded" `Quick test_signers_bounded;
    QCheck_alcotest.to_alcotest prop_incident_latency_consistent;
  ]
