module Observe = Rsti_observe.Observe

type stats = { hits : int; misses : int; duplicated : int }

(* What the registry keeps of a stage, whatever its value type: the
   counters (direct references into the metrics registry, so a bump is
   one lock-free atomic increment) and a way to drop the table. *)
type counters = {
  name : string;
  span : string;
  hit : Observe.Metrics.counter;
  miss : Observe.Metrics.counter;
  dup : Observe.Metrics.counter;
  drop : unit -> unit;
}

type 'a stage = { c : counters; table : (string, 'a) Hashtbl.t }

(* One lock guards every table and the registry. *)
let lock = Mutex.create ()
let registry : counters list ref = ref [] (* newest first *)

let stage name =
  let table = Hashtbl.create 64 in
  let counter field = Observe.Metrics.counter ("cache." ^ name ^ "." ^ field) in
  let c =
    {
      name;
      span = "cache." ^ name;
      hit = counter "hits";
      miss = counter "misses";
      dup = counter "duplicated";
      drop = (fun () -> Hashtbl.reset table);
    }
  in
  Mutex.protect lock (fun () ->
      if List.exists (fun c' -> c'.name = name) !registry then
        invalid_arg ("Cache.stage: " ^ name ^ " is already registered");
      registry := c :: !registry);
  { c; table }

let memo st ~key compute =
  let c = st.c in
  Observe.Span.with_span c.span @@ fun sp ->
  let found = Mutex.protect lock (fun () -> Hashtbl.find_opt st.table key) in
  let v, result =
    match found with
    | Some v ->
        Observe.Metrics.incr c.hit;
        (v, "hit")
    | None -> (
        let v = compute () in
        let winner =
          Mutex.protect lock (fun () ->
              let w = Hashtbl.find_opt st.table key in
              if Option.is_none w then Hashtbl.replace st.table key v;
              w)
        in
        match winner with
        | Some w ->
            Observe.Metrics.incr c.hit;
            Observe.Metrics.incr c.dup;
            (w, "duplicated")
        | None ->
            Observe.Metrics.incr c.miss;
            (v, "miss"))
  in
  Observe.Span.add_attr sp "result" result;
  v

let registered () = Mutex.protect lock (fun () -> List.rev !registry)

let clear () =
  List.iter
    (fun c ->
      Mutex.protect lock c.drop;
      List.iter (fun m -> Observe.Metrics.set m 0) [ c.hit; c.miss; c.dup ])
    (registered ())

let stage_stats () =
  List.map
    (fun c ->
      ( c.name,
        {
          hits = Observe.Metrics.value c.hit;
          misses = Observe.Metrics.value c.miss;
          duplicated = Observe.Metrics.value c.dup;
        } ))
    (registered ())

let stats () =
  List.fold_left
    (fun acc (_, s) ->
      {
        hits = acc.hits + s.hits;
        misses = acc.misses + s.misses;
        duplicated = acc.duplicated + s.duplicated;
      })
    { hits = 0; misses = 0; duplicated = 0 }
    (stage_stats ())
