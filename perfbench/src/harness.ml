(* Set-up, timed passes, the traced pass, and the report. *)

module Cache = Rsti_engine.Cache
module Json = Rsti_staticcheck.Json

(* Set-ups per run; [setup_s] is the median of their normalised times. *)
let setup_reps = 15

(* A probe runs before a unit once this long has passed since the last
   one, and again when the pass ends, so every unit lies between two
   probes: one before each unit of [simulate] and [analyze], one per six
   to ten replays of [attack]. *)
let probe_every_ns = 1_000_000

type pass = {
  wall_ns : int;  (** wall time of the whole pass, probes excluded *)
  lat : float array;  (** per-unit wall time, ns, by unit index *)
  slow : float array;  (** per-unit host slowdown, from the probes around it *)
  instrs : int array;  (** per-unit simulated instructions *)
  machine : float array;  (** per-unit wall time inside the machine, ns *)
  top_heap_words : int;  (** OCaml top heap size when the pass ended *)
  counts : Counts.t;
  failed : int;
  failures : (string * string) list;  (** first few (unit, reason) *)
}

(* Normalised latency of unit [u], ns. *)
let norm_ns (q : pass) u = q.lat.(u) /. q.slow.(u)

(* Normalised time of a pass: the sum of its units' normalised latencies. *)
let norm_pass_s (q : pass) =
  let t = ref 0. in
  Array.iteri (fun u _ -> t := !t +. norm_ns q u) q.lat;
  !t /. 1e9

(* One pass over every unit, in the set-up's order. *)
let run_pass (p : Workloads.prepared) =
  let n = Array.length p.labels in
  let counts = Counts.create () in
  let lat = Array.make n 0. and instrs = Array.make n 0 and machine = Array.make n 0. in
  (* probes.(k) is the k-th probe's time; unit u ran between probes
     before.(u) and before.(u) + 1 *)
  let probes = Array.make (n + 2) 0 and before = Array.make n 0 in
  let n_probes = ref 0 and last_probe = ref 0 and probing = ref 0 in
  let probe () =
    let t = Trace.now_ns () in
    probes.(!n_probes) <- Host.probe_ns 1;
    incr n_probes;
    last_probe := Trace.now_ns ();
    probing := !probing + (!last_probe - t)
  in
  let failed = ref 0 and failures = ref [] in
  let cache0 = Cache.stats () in
  let major0 = (Gc.quick_stat ()).Gc.major_collections in
  let words0 = Gc.minor_words () in
  let t0 = Trace.now_ns () in
  probe ();
  for u = 0 to n - 1 do
    if Trace.now_ns () - !last_probe >= probe_every_ns then probe ();
    before.(u) <- !n_probes - 1;
    Trace.current_unit := u;
    let i0 = counts.instrs and m0 = !Trace.machine_ns in
    let s = Trace.now_ns () in
    let verdict =
      Trace.span Trace.unit_ (fun () ->
          try p.run u counts with e -> Some (Printexc.to_string e))
    in
    lat.(u) <- float_of_int (Trace.now_ns () - s);
    instrs.(u) <- counts.instrs - i0;
    machine.(u) <- float_of_int (!Trace.machine_ns - m0);
    match verdict with
    | None -> ()
    | Some why ->
        incr failed;
        p.fail counts;
        if !failed <= 5 then failures := (p.labels.(u), why) :: !failures
  done;
  probe ();
  let wall_ns = Trace.now_ns () - t0 - !probing in
  counts.minor_words <- Gc.minor_words () -. words0;
  let gc = Gc.quick_stat () in
  counts.major_collections <- gc.Gc.major_collections - major0;
  let cache1 = Cache.stats () in
  counts.cache_hits <- cache1.Cache.hits - cache0.Cache.hits;
  counts.cache_misses <- cache1.Cache.misses - cache0.Cache.misses;
  {
    wall_ns;
    lat;
    slow = Array.map (fun k -> Host.slowdown probes.(k) probes.(k + 1)) before;
    instrs;
    machine;
    top_heap_words = gc.Gc.top_heap_words;
    counts;
    failed = !failed;
    failures = List.rev !failures;
  }

(* Start another pass only while it is expected to end within the run's
   time budget; the first pass always runs. *)
let timed_passes p ~seconds =
  let budget = int_of_float (seconds *. 1e9) in
  let t0 = Trace.now_ns () in
  let rec go acc =
    let pass = run_pass p in
    let acc = pass :: acc in
    if Trace.now_ns () - t0 + pass.wall_ns > budget || List.length acc >= 1000 then
      List.rev acc
    else go acc
  in
  go []

(* The set-up, [setup_reps] times, each between two probes of five
   loops. Returns the last set-up's units and, per set-up, its wall time
   and slowdown. *)
let timed_setups (w : Workloads.t) ~seed ~expected =
  let prepared = ref None in
  let times =
    Array.init setup_reps (fun _ ->
        prepared := None;
        let a = Host.probe_ns 5 in
        let t0 = Trace.now_ns () in
        prepared := Some (w.setup ~seed ~expected);
        let wall = Trace.now_ns () - t0 in
        (float_of_int wall /. 1e9, Host.slowdown a (Host.probe_ns 5)))
  in
  (Option.get !prepared, times)

type metric = string * float * string

let mips instrs ns = if ns = 0. then 0. else float_of_int instrs *. 1e3 /. ns

(* Simulated instructions per normalised second inside the machine. *)
let sim_mips (q : pass) =
  let t = ref 0. in
  Array.iteri (fun u m -> t := !t +. (m /. q.slow.(u))) q.machine;
  mips q.counts.Counts.instrs !t

let tail_of a =
  let p = Stat.tail_pct (Array.length a) in
  (p, Stat.percentile (float_of_int p) a)

(* Per-layer metrics of the traced pass. *)
let layer_metrics (p : Workloads.prepared) (r : Trace.recorder) (pass : pass) =
  let totals = Trace.self_totals r ~slow:pass.slow in
  let times =
    List.init (Trace.n_layers - 1) (fun i ->
        let l = i + 1 in
        (Trace.names.(l) ^ "_ms", totals.(l).Trace.self_ns /. 1e6, "ms"))
  in
  let allocs =
    List.init (Trace.lint - Trace.parse + 1) (fun i ->
        let l = Trace.parse + i in
        ( Trace.names.(l) ^ "_alloc_mw",
          totals.(l).Trace.self_words /. 1e6,
          "Mwords" ))
  in
  let units = Array.length p.labels in
  let normalised layer =
    Array.mapi (fun u d -> float_of_int d /. pass.slow.(u)) (Trace.per_unit r layer ~units)
  in
  let run = normalised Trace.machine_run and create = normalised Trace.machine_create in
  let per_instr =
    Array.of_list
      (List.filter_map
         (fun u ->
           if pass.instrs.(u) = 0 then None
           else Some (run.(u) /. float_of_int pass.instrs.(u)))
         (List.init units Fun.id))
  in
  let tp, tv = tail_of per_instr in
  let total_instrs = Array.fold_left ( + ) 0 pass.instrs in
  let per_config =
    Array.to_list
      (Array.mapi
         (fun c name ->
           let i = ref 0 and t = ref 0. in
           for u = 0 to units - 1 do
             if p.config.(u) = c then begin
               i := !i + pass.instrs.(u);
               t := !t +. run.(u) +. create.(u)
             end
           done;
           ("machine.sim_mips." ^ name, mips !i !t, "Minstr/s"))
         Workloads.configs)
  in
  ( times @ allocs
    @ [
        ("machine.ns_per_instr.p50", Stat.median per_instr, "ns");
        ("machine.ns_per_instr.tail", tv, "ns");
        ( "machine.alloc_words_per_instr",
          (if total_instrs = 0 then 0.
           else totals.(Trace.machine_run).Trace.self_words /. float_of_int total_instrs),
          "words" );
      ]
    @ per_config,
    (tp, Array.length per_instr) )

(* JSON numbers: integral values as integers, so exact counts stay exact. *)
let num v =
  if Float.is_integer v && Float.abs v < 1e15 then Json.Int (int_of_float v)
  else Json.Float v

let metrics_json (l : metric list) = Json.Obj (List.map (fun (n, v, _) -> (n, num v)) l)
let print_metric (n, v, u) = Printf.printf "  %-40s %16.6f %s\n" n v u

let show v = Json.to_string ~indent:false (num v)

let print_flags what =
  List.iter (fun (n, a, b) -> Printf.printf "  FLAG %s: %s %s vs %s\n" what n (show a) (show b))

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    Sys.mkdir d 0o755
  end

(* Compare the first pass's counts with the last run of the same
   workload and seed, then keep them for the next run. Values are
   compared as written, so both sides go through the same printer. *)
let against_last_run ~out_dir ~workload ~seed (c : Counts.t) =
  mkdir_p out_dir;
  let file = Filename.concat out_dir (Printf.sprintf "%s-seed%d.counts.json" workload seed) in
  let earlier =
    if not (Sys.file_exists file) then []
    else
      match Json.of_string (In_channel.with_open_text file In_channel.input_all) with
      | Ok (Json.Obj fields) -> fields
      | _ -> []
  in
  let was e = Json.to_string ~indent:false e in
  List.iter
    (fun (n, v, _) ->
      match List.assoc_opt n earlier with
      | Some e when was e <> show v ->
          Printf.printf "  FLAG differs from the last run of seed %d: %s %s vs %s\n" seed n
            (was e) (show v)
      | _ -> ())
    (Counts.metrics c);
  Out_channel.with_open_text file (fun oc ->
      output_string oc (Json.to_string (metrics_json (Counts.metrics c))))

let write_trace file ~workload ~seed ~units ~pass_s ~(traced : pass) r layer (c : Counts.t) =
  let layers =
    Array.to_list
      (Array.mapi
         (fun l (t : Trace.layer_total) ->
           ( Trace.names.(l),
             Json.Obj
               [
                 ("calls", Json.Int t.calls);
                 ("self_ms", Json.Float (t.self_ns /. 1e6));
                 ("alloc_mw", Json.Float (t.self_words /. 1e6));
               ] ))
         (Trace.self_totals r ~slow:traced.slow))
  in
  let doc =
    Json.Obj
      [
        ("workload", Json.Str workload);
        ("seed", Json.Int seed);
        ("units", Json.Int units);
        ("untraced_pass_s", Json.Float pass_s);
        ("traced_pass_s", Json.Float (norm_pass_s traced));
        ("layers", Json.Obj layers);
        ("metrics", metrics_json layer);
        ("counts", metrics_json (Counts.metrics c));
        ("spans", Trace.spans_json r);
      ]
  in
  Out_channel.with_open_text file (fun oc -> output_string oc (Json.to_string ~indent:false doc))

type options = {
  workload : Workloads.t;
  seed : int;
  seconds : float;
  trace : bool;
  expected_dir : string;
  out_dir : string;
  record : bool;
}

type outcome = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : metric list;  (** what the final JSON line carries *)
}

(* Per-layer report of the traced pass [q]; [c] is its exact counts with
   the failure counters of the whole run. *)
let traced_report (o : options) p r (q : pass) (c : Counts.t) ~pass_s ~extra =
  let units = Array.length p.Workloads.labels in
  let per_layer, (np, nunits) = layer_metrics p r q in
  let layer =
    per_layer @ Counts.metrics c
    @ [ ("trace.overhead", norm_pass_s q /. pass_s, "ratio") ]
    @ extra
  in
  Printf.printf "per-layer (traced pass; normalised self times; %d spans, %d dropped):\n"
    r.Trace.len r.Trace.dropped;
  List.iter print_metric layer;
  Printf.printf "  machine.ns_per_instr.tail is p%d of %d units\n" np nunits;
  let file =
    Filename.concat o.out_dir (Printf.sprintf "%s-seed%d.trace.json" o.workload.name o.seed)
  in
  write_trace file ~workload:o.workload.name ~seed:o.seed ~units ~pass_s ~traced:q r layer c;
  Printf.printf "trace written to %s\n" file;
  layer

let run (o : options) =
  let w = o.workload in
  let expected_file = Filename.concat o.expected_dir (w.Workloads.name ^ ".tsv") in
  let expected = Expected.load ~recording:o.record expected_file in
  let p, setups = timed_setups w ~seed:o.seed ~expected in
  let units = Array.length p.labels in
  Printf.printf "perfbench %s seed=%d units=%d seconds=%g trace=%d\n%!" w.name o.seed units
    o.seconds
    (if o.trace then 1 else 0);
  let passes = timed_passes p ~seconds:o.seconds in
  let first = List.hd passes in
  if o.record then begin
    Expected.save expected
      ~header:
        [ Printf.sprintf "perfbench %s expectations; regenerate with --record" w.name; w.columns ]
      expected_file;
    Printf.printf "recorded %s\n" expected_file
  end;
  (* one more pass under the span recorder, if asked *)
  let traced =
    if o.trace then begin
      let r = Trace.recorder ~cap:(units * 32) in
      Some (r, Trace.with_recorder r (fun () -> run_pass p))
    end
    else None
  in
  let all = passes @ Option.to_list (Option.map snd traced) in
  let attempted = units * List.length all in
  let failed = List.fold_left (fun acc (q : pass) -> acc + q.failed) 0 all in
  let over_passes f = Array.of_list (List.map f passes) in
  let pass_s = Stat.median (over_passes norm_pass_s) in
  (* a unit's latency is its median over the passes *)
  let unit_lat u = Stat.median (over_passes (fun q -> norm_ns q u /. 1e6)) in
  let unit_ms = Array.init units unit_lat in
  let tail_p, tail_v = tail_of unit_ms in
  let e2e =
    [
      ("setup_s", Stat.median (Array.map (fun (s, slow) -> s /. slow) setups), "s");
      ("pass_s", pass_s, "s");
      ("unit_ms.p50", Stat.median unit_ms, "ms");
      ("unit_ms.tail", tail_v, "ms");
      (* the top heap once set-up and the first pass are done: later
         passes only add fragmentation that grows with the run's length *)
      ( "heap_peak_mb",
        float_of_int (first.top_heap_words * (Sys.word_size / 8)) /. 1048576.,
        "MB" );
    ]
  in
  let extra =
    [
      ("fail_ratio", float_of_int failed /. float_of_int attempted, "ratio");
      ("sim_mips", Stat.median (over_passes sim_mips), "Minstr/s");
    ]
  in
  Printf.printf "end-to-end (untraced; %d pass(es) of %d units; set-up x%d; normalised):\n"
    (List.length passes) units setup_reps;
  List.iter print_metric (e2e @ extra);
  let raw_lat = Array.init units (fun u -> Stat.median (over_passes (fun q -> q.lat.(u) /. 1e6))) in
  Printf.printf
    "  wall, not normalised: setup_s %.6f, pass_s %.6f, unit_ms.p50 %.6f, unit_ms.tail %.6f\n"
    (Stat.median (Array.map fst setups))
    (Stat.median (over_passes (fun q -> float_of_int q.wall_ns /. 1e9)))
    (Stat.median raw_lat) (snd (tail_of raw_lat));
  Printf.printf "  host slowdown: set-up %.3f, passes %.3f (1 = the probe loop takes %d us)\n"
    (Stat.median (Array.map snd setups))
    (Stat.median (over_passes (fun q -> Stat.median q.slow)))
    (Host.reference_ns / 1000);
  Printf.printf "  unit_ms.tail is p%d of %d units (%d beyond); failed %d of %d\n" tail_p units
    (Stat.beyond tail_p units) failed attempted;
  List.iter
    (fun (q : pass) ->
      List.iter (fun (u, why) -> Printf.printf "  FAIL %s: %s\n" u why) q.failures)
    all;
  (* the failure counters cover every pass, so they add up to [failed] *)
  let counts_of (q : pass) =
    Counts.with_failures_of (List.map (fun (q : pass) -> q.counts) all) q.counts
  in
  Printf.printf "exact counts (first pass; failure counters over all %d passes):\n"
    (List.length all);
  List.iter print_metric (Counts.metrics (counts_of first));
  (* every later pass, traced or not, must reproduce the first pass's counts *)
  let drift = List.concat_map (fun (q : pass) -> Counts.diff first.counts q.counts) (List.tl all) in
  print_flags "pass-to-pass" drift;
  against_last_run ~out_dir:o.out_dir ~workload:w.name ~seed:o.seed first.counts;
  let metrics, dropped =
    match traced with
    | None -> (e2e, 0)
    | Some (r, q) -> (traced_report o p r q (counts_of q) ~pass_s ~extra, r.Trace.dropped)
  in
  { correct = failed = 0 && drift = [] && dropped = 0; attempted; failed; metrics }

(* The result line keeps every digit of each value: Json.to_string
   rounds floats to six significant digits. *)
let result_line (r : outcome) =
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    r.correct r.attempted r.failed
    (String.concat ", "
       (List.map
          (fun (n, v, u) ->
            Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" n
              (if Float.is_finite v then Printf.sprintf "%.17g" v else "0")
              u)
          r.metrics))
