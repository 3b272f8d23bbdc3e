(** [rsti_observe] — the telemetry core threaded through every layer of
    the stack (pipeline stages, scheduler tasks, cache lookups, dataflow
    fixpoints; the machine's hot-site profiler lives in
    {!Rsti_machine.Interp} and flows out through its [outcome]). Within
    the tree it depends only on [rsti_util], whose {!Rsti_util.Json}
    renders every document the sinks below write, so it sits below every
    other library.

    Three instruments:

    - {!Span}: a process-global, domain-safe span recorder — monotonic
      clock, parent/child nesting (propagated across domain fan-out via
      {!Span.current_context}), key:value attributes — with one sink:
      Chrome trace-event JSON (loadable in Perfetto / chrome://tracing).
    - {!Metrics}: a typed counter/gauge/histogram registry replacing the
      ad-hoc counters that used to live in each subsystem, dumped as one
      machine-readable JSON document.
    - {!Events}: the security-event log, one JSON object per line.

    Overhead contract: spans are recorded only while {!enabled} — when
    disabled, {!Span.enter} returns the preallocated {!Span.none} handle
    and records nothing, so instrumented hot paths allocate nothing.
    Metric counters are lock-free atomics and stay live even when spans
    are disabled (they replace counters the engine always maintained),
    so a counter's value never depends on whether spans are recorded. *)

val set_enabled : bool -> unit
(** Default [false]. Enables span recording. *)

val enabled : unit -> bool

val reset : unit -> unit
(** {!Span.reset} plus {!Metrics.reset} plus {!Events.reset}: drop
    recorded spans, instants and events, zero every metric
    (registrations survive). *)

val now_ns : unit -> int64
(** Monotonic clock, nanoseconds. *)

(** The span recorder. *)
module Span : sig
  type t
  (** A live span handle. *)

  val none : t
  (** The no-op handle {!enter} returns while recording is disabled;
      {!add_attr} and {!exit} on it do nothing and allocate nothing. *)

  val enter : ?attrs:(string * string) list -> string -> t
  (** Open a span named [name] under the current domain's innermost open
      span (or the installed {!context}). *)

  val add_attr : t -> string -> string -> unit
  (** Attach a key:value attribute to a live span (useful for results
      known only at exit: hit/miss, iteration counts). *)

  val exit : t -> unit
  (** Close the span and append it to the process-global record list. *)

  val with_ : ?attrs:(string * string) list -> string -> (unit -> 'a) -> 'a
  (** [enter]/[exit] around a closure, exception-safe. *)

  val with_span : ?attrs:(string * string) list -> string -> (t -> 'a) -> 'a
  (** {!with_} handing the live span to the closure so it can
      {!add_attr} results discovered mid-flight. *)

  type context
  (** A capture of "the span new work should nest under" — what a
      fan-out point passes to worker domains so their spans parent under
      the caller's span instead of floating as roots. *)

  val current_context : unit -> context
  val with_context : context -> (unit -> 'a) -> 'a

  (** A finished span. [parent = -1] means root. *)
  type record = {
    id : int;
    parent : int;
    name : string;
    attrs : (string * string) list;
    t_start_ns : int64;
    t_end_ns : int64;
    domain : int;  (** the domain the span ran on *)
  }

  val records : unit -> record list
  (** Finished spans, ordered by start time (ties by id). *)

  val instant : ?cat:string -> ?attrs:(string * string) list -> string -> unit
  (** Record a point-in-time mark (a Chrome "i" instant event) under
      category [cat] (default ["rsti"]). Security-event marks use their
      own category (e.g. ["rsti-incident"]) so trace viewers can filter
      them against the pipeline-stage tracks. No-op while disabled. *)

  val reset : unit -> unit

  val chrome_trace : unit -> Rsti_util.Json.t
  (** The Chrome trace-event document ([{"traceEvents": [...]}], "X"
      complete events, one track per domain) — loadable in Perfetto and
      chrome://tracing. Span attributes appear under [args], including
      the cross-domain [parent] id. {!instant} marks follow the complete
      events as "i"-phase entries under their own category, with the
      same key set (dur = 0) so uniform consumers need no special
      casing. *)
end

(** The metrics registry. Names are dotted paths ([cache.analysis.hits],
    [scheduler.steals]); registration is idempotent and every mutation
    is domain-safe. *)
module Metrics : sig
  type counter

  val counter : string -> counter
  (** Get or create the counter registered under [name]. *)

  val incr : counter -> unit
  val add : counter -> int -> unit
  val value : counter -> int
  val set : counter -> int -> unit

  type gauge

  val gauge : string -> gauge
  val set_gauge : gauge -> int -> unit
  val gauge_value : gauge -> int

  type histogram

  val histogram : string -> histogram

  val observe : histogram -> float -> unit
  (** Record one observation (count/sum/min/max are maintained, and the
      sample is retained for percentile summaries). *)

  val percentile : histogram -> float -> float
  (** [percentile h q] with [q] in [\[0,1\]]: type-7 quantile (linear
      interpolation between order statistics, the R default:
      {!Rsti_util.Stats.quantile}) over every retained sample. [nan] on
      an empty histogram. *)

  val counters : unit -> (string * int) list
  (** Every registered counter with its value, sorted by name. *)

  val reset : unit -> unit
  (** Zero all values; registrations survive. *)

  val to_json : unit -> Rsti_util.Json.t
  (** The whole registry as one document:
      [{"schema": "rsti-metrics/1", "counters": {...}, "gauges": {...},
        "histograms": {name: {count, sum, min, max, p50, p90, p99}}}],
      keys sorted, so equal registries render byte-identically. *)
end

(** The security-event log: a process-global buffer of structured
    events rendered as one JSON-Lines document (schema [rsti-events/1]).
    Unlike spans, emission is not gated on {!enabled} — callers emit
    only from already-rare paths (incident extraction), and the sink is
    written only when a consumer asks for it ([rstic run --events],
    bench). Determinism contract: {!Events.to_jsonl} orders the rendered
    lines lexicographically, so the byte stream is identical at any
    [--jobs] provided event payloads are themselves deterministic
    (simulated cycle counts, never wall-clock). *)
module Events : sig
  val emit : cat:string -> name:string -> (string * Rsti_util.Json.t) list -> unit
  (** Buffer one event. [cat]/[name] render as the first two fields of
      the line. *)

  val count : unit -> int
  (** Events buffered so far. *)

  val to_jsonl : unit -> string
  (** The full document: a [{"schema":"rsti-events/1","events":N}]
      header line followed by one compact JSON object per event, lines
      sorted lexicographically, trailing newline. *)

  val reset : unit -> unit
end
