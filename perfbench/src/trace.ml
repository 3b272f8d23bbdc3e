(* The benchmark's own span recorder. Spans are recorded from outside
   the program, around each call the benchmark makes into a layer's
   public functions; nothing inside lib/ is instrumented, and the
   library's own Observe recorder stays off.

   Spans live in preallocated int/float arrays, so recording one
   allocates nothing on the OCaml heap: a traced pass allocates exactly
   the words an untraced pass does, and the minor-heap counts of the
   two can be compared exactly. When no recorder is installed, [span]
   is one load and a direct call. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* Layer ids: one per layer call the benchmark wraps. [unit_] is the
   root span of every unit; its self time is the benchmark's own
   per-unit work (result checks). *)
let unit_ = 0
let parse = 1
let typecheck = 2
let lower = 3
let sti_analysis = 4
let points_to = 5
let points_to_cs = 6
let scope_escape = 7
let elide = 8
let instrument = 9
let validate = 10
let equiv = 11
let lint = 12
let engine_compile = 13
let engine_analyze = 14
let engine_instrument = 15
let machine_create = 16
let machine_run = 17

(* Span names double as the per-layer metric stems ("<name>_ms",
   "<name>_alloc_mw"). *)
let names =
  [|
    "unit";
    "minic.parse";
    "minic.typecheck";
    "ir.lower";
    "sti.analysis";
    "dataflow.points_to";
    "dataflow.points_to_cs";
    "dataflow.scope_escape";
    "staticcheck.elide";
    "rsti.instrument";
    "dataflow.validate";
    "dataflow.equiv";
    "staticcheck.lint";
    "engine.compile";
    "engine.analyze";
    "engine.instrument";
    "machine.create";
    "machine.run";
  |]

let n_layers = Array.length names

type recorder = {
  cap : int;
  layer : int array;
  unit_id : int array;
  parent : int array;
  start : int array;
  stop : int array;
  alloc0 : float array;
  alloc1 : float array;
  mutable len : int;
  mutable cur : int;  (** innermost open span, -1 at the top *)
  mutable dropped : int;  (** spans past [cap], run unrecorded *)
}

let recorder ~cap =
  {
    cap;
    layer = Array.make cap 0;
    unit_id = Array.make cap 0;
    parent = Array.make cap (-1);
    start = Array.make cap 0;
    stop = Array.make cap 0;
    alloc0 = Array.make cap 0.;
    alloc1 = Array.make cap 0.;
    len = 0;
    cur = -1;
    dropped = 0;
  }

let active : recorder option ref = ref None
let current_unit = ref 0

(* Host time spent inside the machine (create + run), kept whether or
   not a recorder is installed: simulation throughput is an end-to-end
   number. Two clock reads per machine call. *)
let machine_ns = ref 0

let close r i =
  r.stop.(i) <- now_ns ();
  r.alloc1.(i) <- Gc.minor_words ();
  r.cur <- r.parent.(i)

let span layer f =
  match !active with
  | None -> f ()
  | Some r ->
      let i = r.len in
      if i >= r.cap then begin
        r.dropped <- r.dropped + 1;
        f ()
      end
      else begin
        r.len <- i + 1;
        r.layer.(i) <- layer;
        r.unit_id.(i) <- !current_unit;
        r.parent.(i) <- r.cur;
        r.cur <- i;
        r.alloc0.(i) <- Gc.minor_words ();
        r.start.(i) <- now_ns ();
        match f () with
        | v ->
            close r i;
            v
        | exception e ->
            close r i;
            raise e
      end

let machine layer f =
  let t0 = now_ns () in
  match span layer f with
  | v ->
      machine_ns := !machine_ns + (now_ns () - t0);
      v
  | exception e ->
      machine_ns := !machine_ns + (now_ns () - t0);
      raise e

let duration r i = r.stop.(i) - r.start.(i)
let allocated r i = r.alloc1.(i) -. r.alloc0.(i)

type layer_total = {
  mutable calls : int;
  mutable self_ns : float;
  mutable self_words : float;
}

(* A span's self time is its duration minus its children's durations,
   divided by [slow.(unit)], the host slowdown measured around its unit
   (see Host); likewise for minor-heap words, undivided. *)
let self_totals r ~slow =
  let t =
    Array.init n_layers (fun _ -> { calls = 0; self_ns = 0.; self_words = 0. })
  in
  for i = 0 to r.len - 1 do
    let own = t.(r.layer.(i)) in
    let d = float_of_int (duration r i) /. slow.(r.unit_id.(i)) in
    own.calls <- own.calls + 1;
    own.self_ns <- own.self_ns +. d;
    own.self_words <- own.self_words +. allocated r i;
    let p = r.parent.(i) in
    if p >= 0 then begin
      let up = t.(r.layer.(p)) in
      up.self_ns <- up.self_ns -. d;
      up.self_words <- up.self_words -. allocated r i
    end
  done;
  t

(* Per-unit duration of one layer's spans (inclusive), in ns. *)
let per_unit r layer ~units =
  let a = Array.make units 0 in
  for i = 0 to r.len - 1 do
    if r.layer.(i) = layer then
      a.(r.unit_id.(i)) <- a.(r.unit_id.(i)) + duration r i
  done;
  a

let with_recorder r f =
  active := Some r;
  Fun.protect ~finally:(fun () -> active := None) f

(* One JSON object per span; times in ns from the first span. *)
let spans_json r =
  let module Json = Rsti_staticcheck.Json in
  let t0 = if r.len = 0 then 0 else r.start.(0) in
  Json.List
    (List.init r.len (fun i ->
         Json.Obj
           [
             ("id", Json.Int i);
             ("name", Json.Str names.(r.layer.(i)));
             ("unit", Json.Int r.unit_id.(i));
             ("parent", Json.Int r.parent.(i));
             ("start_ns", Json.Int (r.start.(i) - t0));
             ("end_ns", Json.Int (r.stop.(i) - t0));
             ("alloc_words", Json.Int (int_of_float (allocated r i)));
           ]))
