(** Security-event forensics: the static↔dynamic incident coverage map.

    Runs the full Table-1 and Table-2 catalog under every mechanism
    (STWC/STC/STL/PARTS) with the machine's PAC flight recorder on, and
    correlates each detected attack's {!Rsti_machine.Interp.incident}
    with the static substitution-attack-surface partition
    ({!Rsti_dataflow.Equiv}): flight-recorder ops carry the static
    modifier constant, which is exactly the class identity of the
    partition, so every incident resolves to the class(es) of the
    failing authentication site — and, for substitution replays, to the
    class that signed the replayed value.

    The coverage invariant the report and CI assert: {e every} detected
    attack yields an incident that maps into a static artifact (an
    [Equiv] class, or the pointer-to-pointer modifier table for pp
    authentications) — zero unmapped incidents, zero detections without
    a record. Edge-exercise numbers come from the PR-7 cross-validation
    catalog: statically replayable gadget edges confirmed by a
    successful replay, and cross-class controls confirmed by a trap.

    Attack replays bypass the engine's outcome cache, so every
    (scenario, mechanism) pair is replayed afresh; only the static side
    (compilation, analysis, attack surface, instrumentation) comes from
    the engine's cached pipeline stages. *)

val mechanisms : Rsti_sti.Rsti_type.mechanism list
(** STWC, STC, STL, PARTS — the coverage columns. *)

val default_flight : int
(** Flight-recorder ring capacity (16): what {!collect} runs with, and
    [rstic run --events] when [--flight] is not given. *)

type record = {
  r_table : string;  (** ["table1"] or ["table2"] *)
  r_scenario : string;  (** scenario id *)
  r_paper_row : string;
  r_mech : Rsti_sti.Rsti_type.mechanism;
  r_incident : Rsti_machine.Interp.incident;
  r_classes : Rsti_dataflow.Equiv.cls list;
      (** static classes matching the failing site's (modifier, key);
          more than one only under STL, where several
          location-distinguished classes share a modifier constant;
          empty for pp authentications *)
  r_donor_classes : Rsti_dataflow.Equiv.cls list;
      (** classes matching the observed signer, for replay incidents *)
  r_pp : bool;
      (** the failing op is a pointer-to-pointer authentication — it
          maps against the instrumenter's pp modifier table, not the
          slot partition *)
  r_mapped : bool;
      (** the incident resolves into the static attack-surface graph:
          the victim site maps (class or pp table), and the signer, if
          any, maps too *)
}

type run_row = {
  rr_table : string;
  rr_scenario : string;
  rr_mech : Rsti_sti.Rsti_type.mechanism;
  rr_verdict : Scenario.verdict;
  rr_records : record list;
  rr_replay_edges : int;
      (** static replayable gadget edges of this scenario's program
          under this mechanism (unconfined attacker) *)
  rr_feasible_edges : int;
      (** same under the confined linear-overflow attacker *)
}

type mech_cov = {
  mc_mech : Rsti_sti.Rsti_type.mechanism;
  mc_runs : int;
  mc_detected : int;
  mc_incidents : int;
  mc_mapped : int;
  mc_replays : int;  (** incidents with an observed signer *)
  mc_raw : int;  (** incidents from raw (PAC-less) overwrites *)
  mc_static_replay_edges : int;
  mc_static_feasible_edges : int;
  mc_replayable_total : int;
      (** cross-validation catalog pairs statically replayable *)
  mc_replayable_exercised : int;
      (** of those, dynamically confirmed (the replay succeeded) *)
  mc_nonedges_checked : int;
      (** statically non-replayable pairs whose replay trapped *)
  mc_latency_cycles : int list;  (** detection latencies, ascending *)
  mc_latency_instrs : int list;
}

type coverage = {
  cov_flight : int;
  cov_runs : run_row list;  (** (table, scenario, mechanism) order *)
  cov_records : record list;
  cov_mechs : mech_cov list;  (** in {!mechanisms} order *)
  cov_detected : int;
  cov_incidents : int;
  cov_unmapped : int;  (** MUST be 0 *)
  cov_missing : (string * Rsti_sti.Rsti_type.mechanism) list;
      (** detected runs that produced no incident — MUST be empty *)
  cov_crossval : Crossval.catalog_row list;
}

val collect : unit -> coverage
(** Run the catalogs with a {!default_flight} ring and build the coverage
    map. Parallelized over scenarios at the scheduler's default job
    count; deterministic at any job count. Emits one ["rsti-incident"]
    instant mark per incident into the span recorder when observability
    is enabled. *)

val ok : coverage -> bool
(** The CI invariant: [cov_unmapped = 0 && cov_missing = []]. *)

val incident_fields :
  Rsti_machine.Interp.incident -> (string * Rsti_util.Json.t) list
(** The raw incident's JSON fields (site, expected/observed signer,
    latency, window size) — what [rstic run --events] emits for a bare
    run, where no scenario/class context exists. *)

val record_fields : record -> (string * Rsti_util.Json.t) list
(** The incident record's JSON fields (the [rsti-events/1] payload and
    the report's raw view share this). Deterministic: every value comes
    from the simulated machine, never a wall clock. *)

val mech_fields : mech_cov -> (string * Rsti_util.Json.t) list

val coverage_json : coverage -> Rsti_util.Json.t
(** The [detection-latency] block of BENCH_fig9.json: the verdict
    counts, then per mechanism (by slug) the {!mech_fields} counts with
    the cycle and instruction latency histograms (count, min, max, p50,
    p90, p99). *)

val emit_events : coverage -> unit
(** Buffer the coverage map into {!Rsti_observe.Observe.Events}: one
    [incident] event per record, one [coverage] event per mechanism,
    one [coverage/summary] event with the verdict. *)
