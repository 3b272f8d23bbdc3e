(** The engine's content-keyed artifact cache.

    The cache knows nothing about the pipeline. A {!stage} is one typed
    memo table; the module that computes an artifact owns its stage,
    declares it once at top level with {!stage}, and looks artifacts up
    with {!memo}. {!Pipeline} owns every stage: compile, analysis,
    points_to, points_to_cs, scope_escape, elide, elide_pt, elide_ctx,
    instrument, outcome and attack_surface. Keys are strings the owner
    builds: the source digest the stage values carry, plus one key part
    per stage (the points-to mode with its k, the mechanism, the elision
    mode, ...).

    Every stage is a pure function of its key, so an artifact is built
    once per key per process: the seed harness recompiled and
    re-analyzed every SPEC kernel once per bench section, and the PA-cost
    ablation alone re-ran the frontend fifteen times per workload.

    Counting: each {!memo} call is one lookup and opens one
    [cache.<stage>] span. Hits count only the lookups callers make — a
    stage fetches its dependencies inside its compute closure, so they
    are looked up on a miss only.

    Domain safety: the tables are mutex-guarded, so concurrent lookups
    are safe. Artifact values themselves (the STI analysis in
    particular) answer some queries by memoizing internally, so the
    engine's parallel paths hand any given key's artifacts to one domain
    at a time (tasks are partitioned by workload, and each workload owns
    its keys). A miss is computed outside the lock; a duplicated
    computation under a racing miss is benign because stages are
    deterministic, and the first writer wins. *)

type stats = { hits : int; misses : int; duplicated : int }
(** A lookup that found its artifact is a hit; one that computed and
    installed it is a miss; one that computed but lost the install race
    to a concurrent miss counts as a hit {e and} a [duplicated]. Hits and
    misses therefore match the serial schedule for any job count, and
    [duplicated] counts exactly the racing recomputations. *)

type 'a stage
(** A memo table of ['a] artifacts under string keys, with its
    [cache.<name>.{hits,misses,duplicated}] counters in
    {!Rsti_observe.Observe.Metrics}. *)

val stage : string -> 'a stage
(** [stage name] registers a new stage. Call it once per stage, at the
    owner's top level; registration order is {!stage_stats} order.
    Raises [Invalid_argument] if [name] is already registered. *)

val memo : 'a stage -> key:string -> (unit -> 'a) -> 'a
(** [memo st ~key compute] returns the artifact stored under [key],
    computing and installing it on a miss. *)

val clear : unit -> unit
(** Drop every stage's artifacts and zero its counters. *)

val stats : unit -> stats
(** Aggregate over {!stage_stats}. *)

val stage_stats : unit -> (string * stats) list
(** Per-stage counts in registration order. *)
