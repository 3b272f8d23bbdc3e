(* A deduplicating FIFO worklist over dense integer ids — the engine
   under the one fixpoint in this library, the points-to solver, which
   iterates constraint-graph node ids. Pushing an id already on the list
   is a no-op, so the client never schedules the same unit of work twice
   per round. *)

type t = { q : int Queue.t; mutable on : Bytes.t }

let create n = { q = Queue.create (); on = Bytes.make (max n 16) '\000' }

let ensure t i =
  let n = Bytes.length t.on in
  if i >= n then begin
    let on = Bytes.make (max (i + 1) (2 * n)) '\000' in
    Bytes.blit t.on 0 on 0 n;
    t.on <- on
  end

let push t i =
  ensure t i;
  if Bytes.get t.on i = '\000' then begin
    Bytes.set t.on i '\001';
    Queue.add i t.q
  end

let pop t =
  match Queue.take_opt t.q with
  | None -> None
  | Some i ->
      Bytes.set t.on i '\000';
      Some i

let is_empty t = Queue.is_empty t.q
let length t = Queue.length t.q
