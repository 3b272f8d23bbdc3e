(* The telemetry core. Sits below every library in the tree except
   [rsti_util] (and the monotonic-clock stub), so the engine, the
   dataflow solvers and the static checker can all report into one
   process-global recorder without dependency cycles.

   Domain safety: the span list and the metric registry are mutex-
   guarded on the slow paths (span completion, metric registration);
   counter bumps are lock-free atomics; per-domain nesting state lives
   in Domain.DLS. *)

open Rsti_util

let enabled_flag = Atomic.make false
let set_enabled b = Atomic.set enabled_flag b
let enabled () = Atomic.get enabled_flag
let now_ns () = Monotonic_clock.now ()

(* ------------------------------ spans ------------------------------ *)

module Span = struct
  type record = {
    id : int;
    parent : int;
    name : string;
    attrs : (string * string) list;
    t_start_ns : int64;
    t_end_ns : int64;
    domain : int;
  }

  type t = {
    s_id : int;                                  (* -1 = the none handle *)
    s_parent : int;
    s_name : string;
    mutable s_attrs : (string * string) list;    (* reverse order *)
    s_start : int64;
    s_domain : int;
  }

  let none =
    { s_id = -1; s_parent = -1; s_name = ""; s_attrs = []; s_start = 0L;
      s_domain = 0 }

  (* A point-in-time mark (Chrome "i" instant event). Security events
     use their own category so trace viewers can filter them out of the
     pipeline-stage tracks. *)
  type instant_record = {
    i_name : string;
    i_cat : string;
    i_attrs : (string * string) list;
    i_ts_ns : int64;
    i_domain : int;
  }

  let next_id = Atomic.make 0
  let lock = Mutex.create ()
  let finished : record list ref = ref []        (* reverse completion order *)
  let instants_rev : instant_record list ref = ref []

  (* Innermost-open-span stack per domain; the int at the bottom is the
     installed cross-domain context (-1 = root). *)
  let stack : int list Domain.DLS.key = Domain.DLS.new_key (fun () -> [])

  type context = int

  let current_context () =
    match Domain.DLS.get stack with id :: _ -> id | [] -> -1

  let with_context ctx f =
    let saved = Domain.DLS.get stack in
    Domain.DLS.set stack [ ctx ];
    Fun.protect ~finally:(fun () -> Domain.DLS.set stack saved) f

  let enter ?(attrs = []) name =
    if not (enabled ()) then none
    else begin
      let id = Atomic.fetch_and_add next_id 1 in
      let parent = current_context () in
      Domain.DLS.set stack (id :: Domain.DLS.get stack);
      {
        s_id = id;
        s_parent = parent;
        s_name = name;
        s_attrs = List.rev attrs;
        s_start = now_ns ();
        s_domain = (Domain.self () :> int);
      }
    end

  let add_attr t k v = if t.s_id >= 0 then t.s_attrs <- (k, v) :: t.s_attrs

  let exit t =
    if t.s_id >= 0 then begin
      let t_end = now_ns () in
      (match Domain.DLS.get stack with
      | top :: rest when top = t.s_id -> Domain.DLS.set stack rest
      | _ -> ());
      let r =
        {
          id = t.s_id;
          parent = t.s_parent;
          name = t.s_name;
          attrs = List.rev t.s_attrs;
          t_start_ns = t.s_start;
          t_end_ns = t_end;
          domain = t.s_domain;
        }
      in
      Mutex.lock lock;
      finished := r :: !finished;
      Mutex.unlock lock
    end

  let with_ ?attrs name f =
    let sp = enter ?attrs name in
    Fun.protect ~finally:(fun () -> exit sp) f

  let with_span ?attrs name f =
    let sp = enter ?attrs name in
    Fun.protect ~finally:(fun () -> exit sp) (fun () -> f sp)

  let instant ?(cat = "rsti") ?(attrs = []) name =
    if enabled () then begin
      let r =
        {
          i_name = name;
          i_cat = cat;
          i_attrs = attrs;
          i_ts_ns = now_ns ();
          i_domain = (Domain.self () :> int);
        }
      in
      Mutex.lock lock;
      instants_rev := r :: !instants_rev;
      Mutex.unlock lock
    end

  let records () =
    Mutex.lock lock;
    let rs = !finished in
    Mutex.unlock lock;
    List.sort
      (fun a b ->
        match Int64.compare a.t_start_ns b.t_start_ns with
        | 0 -> compare a.id b.id
        | c -> c)
      rs

  let instants () =
    Mutex.lock lock;
    let rs = !instants_rev in
    Mutex.unlock lock;
    List.sort
      (fun a b ->
        match Int64.compare a.i_ts_ns b.i_ts_ns with
        | 0 -> compare (a.i_cat, a.i_name) (b.i_cat, b.i_name)
        | c -> c)
      rs

  let reset () =
    Mutex.lock lock;
    finished := [];
    instants_rev := [];
    Mutex.unlock lock

  (* Chrome trace-event JSON: "X" (complete) events, microsecond
     timestamps, one track (tid) per domain. *)
  let chrome_trace () =
    let us ns = Int64.to_float ns /. 1000.0 in
    let event (r : record) =
      Json.Obj
        [
          ("name", Json.Str r.name);
          ("cat", Json.Str "rsti");
          ("ph", Json.Str "X");
          ("ts", Json.Float (us r.t_start_ns));
          ("dur", Json.Float (us (Int64.sub r.t_end_ns r.t_start_ns)));
          ("pid", Json.Int 1);
          ("tid", Json.Int r.domain);
          ( "args",
            Json.Obj
              (("parent", Json.Int r.parent)
              :: List.map (fun (k, v) -> (k, Json.Str v)) r.attrs) );
        ]
    in
    (* Instant ("i") events keep the same key set as the complete ones
       (dur = 0) so a sink that iterates events uniformly never has to
       special-case them; viewers ignore dur on "i". *)
    let instant_event (r : instant_record) =
      Json.Obj
        [
          ("name", Json.Str r.i_name);
          ("cat", Json.Str r.i_cat);
          ("ph", Json.Str "i");
          ("s", Json.Str "t");
          ("ts", Json.Float (us r.i_ts_ns));
          ("dur", Json.Float 0.0);
          ("pid", Json.Int 1);
          ("tid", Json.Int r.i_domain);
          ( "args",
            Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) r.i_attrs) );
        ]
    in
    Json.Obj
      [
        ( "traceEvents",
          Json.List
            (List.map event (records ())
            @ List.map instant_event (instants ())) );
        ("displayTimeUnit", Json.Str "ns");
      ]
end

(* ----------------------------- metrics ----------------------------- *)

module Metrics = struct
  type counter = int Atomic.t
  type gauge = int Atomic.t

  type hist = {
    mutable h_count : int;
    mutable h_sum : float;
    mutable h_min : float;
    mutable h_max : float;
    mutable h_samples : float list;  (* reverse observation order *)
  }

  type histogram = hist

  type metric = Counter of counter | Gauge of gauge | Histogram of hist

  let lock = Mutex.create ()
  let registry : (string, metric) Hashtbl.t = Hashtbl.create 64

  let register name make get =
    Mutex.lock lock;
    let m =
      match Hashtbl.find_opt registry name with
      | Some m -> m
      | None ->
          let m = make () in
          Hashtbl.replace registry name m;
          m
    in
    Mutex.unlock lock;
    get name m

  let counter name =
    register name
      (fun () -> Counter (Atomic.make 0))
      (fun name -> function
        | Counter c -> c
        | _ -> invalid_arg ("Observe.Metrics.counter: " ^ name ^ " is not a counter"))

  let incr c = Atomic.incr c
  let add c n = ignore (Atomic.fetch_and_add c n)
  let value c = Atomic.get c
  let set c n = Atomic.set c n

  let gauge name =
    register name
      (fun () -> Gauge (Atomic.make 0))
      (fun name -> function
        | Gauge g -> g
        | _ -> invalid_arg ("Observe.Metrics.gauge: " ^ name ^ " is not a gauge"))

  let set_gauge g n = Atomic.set g n
  let gauge_value g = Atomic.get g

  let histogram name =
    register name
      (fun () ->
        Histogram
          { h_count = 0; h_sum = 0.0; h_min = infinity; h_max = neg_infinity;
            h_samples = [] })
      (fun name -> function
        | Histogram h -> h
        | _ ->
            invalid_arg ("Observe.Metrics.histogram: " ^ name ^ " is not a histogram"))

  let observe h x =
    Mutex.lock lock;
    h.h_count <- h.h_count + 1;
    h.h_sum <- h.h_sum +. x;
    if x < h.h_min then h.h_min <- x;
    if x > h.h_max then h.h_max <- x;
    h.h_samples <- x :: h.h_samples;
    Mutex.unlock lock

  let percentile h q =
    Mutex.lock lock;
    let samples = h.h_samples in
    Mutex.unlock lock;
    match samples with [] -> nan | samples -> Stats.quantile q samples

  let sorted_fold f =
    Mutex.lock lock;
    let all = Hashtbl.fold (fun k v acc -> (k, v) :: acc) registry [] in
    Mutex.unlock lock;
    List.filter_map f (List.sort (fun (a, _) (b, _) -> compare a b) all)

  let counters () =
    sorted_fold (function
      | name, Counter c -> Some (name, Atomic.get c)
      | _ -> None)

  let reset () =
    Mutex.lock lock;
    Hashtbl.iter
      (fun _ -> function
        | Counter c -> Atomic.set c 0
        | Gauge g -> Atomic.set g 0
        | Histogram h ->
            h.h_count <- 0;
            h.h_sum <- 0.0;
            h.h_min <- infinity;
            h.h_max <- neg_infinity;
            h.h_samples <- [])
      registry;
    Mutex.unlock lock

  let to_json () =
    let counters =
      sorted_fold (function
        | name, Counter c -> Some (name, Json.Int (Atomic.get c))
        | _ -> None)
    in
    let gauges =
      sorted_fold (function
        | name, Gauge g -> Some (name, Json.Int (Atomic.get g))
        | _ -> None)
    in
    let hists =
      sorted_fold (function
        | name, Histogram h ->
            let pct q =
              if h.h_count = 0 then Json.Null
              else Json.Float (Stats.quantile q h.h_samples)
            in
            Some
              ( name,
                Json.Obj
                  [
                    ("count", Json.Int h.h_count);
                    ("sum", Json.Float h.h_sum);
                    ("min", if h.h_count = 0 then Json.Null else Json.Float h.h_min);
                    ("max", if h.h_count = 0 then Json.Null else Json.Float h.h_max);
                    ("p50", pct 0.50);
                    ("p90", pct 0.90);
                    ("p99", pct 0.99);
                  ] )
        | _ -> None)
    in
    Json.Obj
      [
        ("schema", Json.Str "rsti-metrics/1");
        ("counters", Json.Obj counters);
        ("gauges", Json.Obj gauges);
        ("histograms", Json.Obj hists);
      ]
end

(* --------------------------- event log ----------------------------- *)

module Events = struct
  type event = {
    ev_cat : string;
    ev_name : string;
    ev_fields : (string * Json.t) list;
  }

  let lock = Mutex.create ()
  let buffered : event list ref = ref []

  let emit ~cat ~name fields =
    let ev = { ev_cat = cat; ev_name = name; ev_fields = fields } in
    Mutex.lock lock;
    buffered := ev :: !buffered;
    Mutex.unlock lock

  let count () =
    Mutex.lock lock;
    let n = List.length !buffered in
    Mutex.unlock lock;
    n

  let reset () =
    Mutex.lock lock;
    buffered := [];
    Mutex.unlock lock

  (* One compact JSON object per line, header first. Determinism at any
     --jobs: events from parallel workers arrive in scheduling order, so
     the sink orders the *rendered lines* lexicographically — content,
     not arrival, decides the byte stream. Events must therefore carry
     only deterministic payloads (simulated cycles, not wall clock). *)
  let to_jsonl () =
    Mutex.lock lock;
    let evs = !buffered in
    Mutex.unlock lock;
    let line ev =
      Json.to_string ~indent:false
        (Json.Obj
           (("cat", Json.Str ev.ev_cat)
           :: ("name", Json.Str ev.ev_name)
           :: ev.ev_fields))
    in
    let lines = List.sort compare (List.map line evs) in
    let header =
      Json.to_string ~indent:false
        (Json.Obj
           [
             ("schema", Json.Str "rsti-events/1");
             ("events", Json.Int (List.length lines));
           ])
    in
    String.concat "\n" (header :: lines) ^ "\n"
end

let reset () =
  Span.reset ();
  Metrics.reset ();
  Events.reset ()
