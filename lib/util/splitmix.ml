(* Splitmix64 (Steele, Lea & Flood 2014): a tiny, fast, statistically solid
   generator whose whole state is one 64-bit word, which makes seeding and
   splitting trivial. *)

type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let create seed = { state = seed }

let copy t = { state = t.state }

let mix z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let next64 t =
  t.state <- Int64.add t.state golden_gamma;
  mix t.state

let int t bound =
  if bound <= 0 then invalid_arg "Splitmix.int: bound must be positive";
  (* Rejection-free modulo is fine here: bounds are tiny compared to 2^62. *)
  let v = Int64.to_int (Int64.shift_right_logical (next64 t) 2) in
  v mod bound

let int_in t lo hi =
  if lo > hi then invalid_arg "Splitmix.int_in: lo > hi";
  lo + int t (hi - lo + 1)

let bool t = Int64.logand (next64 t) 1L = 1L

let float t x =
  let u = Int64.to_float (Int64.shift_right_logical (next64 t) 11) in
  x *. (u /. 9007199254740992.0 (* 2^53 *))

let chance t p = float t 1.0 < p

let pick t = function
  | [] -> invalid_arg "Splitmix.pick: empty list"
  | l -> List.nth l (int t (List.length l))

let weighted t choices =
  let total = List.fold_left (fun acc (w, _) -> acc + w) 0 choices in
  if total <= 0 then invalid_arg "Splitmix.weighted: weights must sum > 0";
  let roll = int t total in
  let rec go acc = function
    | [] -> invalid_arg "Splitmix.weighted: unreachable"
    | (w, x) :: rest -> if roll < acc + w then x else go (acc + w) rest
  in
  go 0 choices

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let split t = { state = next64 t }
