type key = { k0 : int64; w0 : int64 }

let key_of_rng rng =
  { k0 = Rsti_util.Splitmix.next64 rng; w0 = Rsti_util.Splitmix.next64 rng }

let rounds = 7

(* ------------------------------------------------------------------ *)
(* Cell representation: the 64-bit state is sixteen 4-bit cells, cell 0
   being the most significant nibble (QARMA's convention). The cell-wise
   steps run on [int array]s of 16 cells, so a round allocates nothing;
   a word is split into cells once and joined back once per call.     *)
(* ------------------------------------------------------------------ *)

let cells_of x =
  Array.init 16 (fun i -> Int64.to_int (Int64.shift_right_logical x (60 - (4 * i))) land 0xF)

let word_of (c : int array) =
  let half lo =
    let v = ref 0 in
    for i = lo to lo + 7 do
      v := (!v lsl 4) lor c.(i)
    done;
    !v
  in
  Int64.logor (Int64.shift_left (Int64.of_int (half 0)) 32) (Int64.of_int (half 8))

let invert_perm perm =
  let inv = Array.make 16 0 in
  Array.iteri (fun i p -> inv.(p) <- i) perm;
  inv

(* ------------------------------------------------------------------ *)
(* Components                                                          *)
(* ------------------------------------------------------------------ *)

(* 4-bit S-box (sigma-1 from the QARMA family) and its inverse. *)
let sbox = [| 10; 13; 14; 6; 15; 7; 3; 5; 9; 8; 0; 12; 11; 1; 2; 4 |]
let sbox_inv = invert_perm sbox

(* Cell shuffle (QARMA's tau) and its inverse. *)
let tau = [| 0; 11; 6; 13; 10; 1; 12; 7; 5; 14; 3; 8; 15; 4; 9; 2 |]
let tau_inv = invert_perm tau

(* Tweak-update cell permutation (QARMA's h). *)
let h = [| 6; 5; 14; 15; 0; 1; 2; 3; 7; 12; 13; 4; 8; 9; 10; 11 |]

(* Cells whose nibble runs through the tweak LFSR each round. *)
let lfsr_cells = [| 0; 1; 3; 4; 8; 11; 13 |]

(* 4-bit LFSR: (b3,b2,b1,b0) -> (b0 xor b1, b3, b2, b1). *)
let lfsr n =
  let b0 = n land 1 and b1 = (n lsr 1) land 1 in
  let b2 = (n lsr 2) land 1 and b3 = (n lsr 3) land 1 in
  ((b0 lxor b1) lsl 3) lor (b3 lsl 2) lor (b2 lsl 1) lor b1

(* Rotate a 4-bit value left. *)
let rot4 n r =
  let r = r land 3 in
  ((n lsl r) lor (n lsr (4 - r))) land 0xF

let rot1 = Array.init 16 (fun n -> rot4 n 1)
let rot2 = Array.init 16 (fun n -> rot4 n 2)

(* [dst.(i) <- src.(perm.(i))]: new cell i takes the value of old cell
   perm.(i). *)
let permute perm (src : int array) (dst : int array) =
  for i = 0 to 15 do
    dst.(i) <- src.(perm.(i))
  done

let substitute box (s : int array) =
  for i = 0 to 15 do
    s.(i) <- box.(s.(i))
  done

(* Involutory MixColumns-like step. The state is viewed as a 4x4 cell
   matrix (row-major: cell index = 4*row + col). Each output cell XORs the
   other three cells of its column rotated by the circulant (0,1,2,1),
   QARMA's M_{4,2}. circ(0,1,2,1) is an involution over nibbles, so this
   step is its own inverse. *)
let mix_columns (src : int array) (dst : int array) =
  for col = 0 to 3 do
    for row = 0 to 3 do
      dst.((row * 4) + col) <-
        rot1.(src.((((row + 1) land 3) * 4) + col))
        lxor rot2.(src.((((row + 2) land 3) * 4) + col))
        lxor rot1.(src.((((row + 3) land 3) * 4) + col))
    done
  done

(* [s.(i) <- s.(i) xor a.(i) xor b.(i) xor c.(i)] *)
let add_round_key (s : int array) a b c =
  for i = 0 to 15 do
    s.(i) <- s.(i) lxor a.(i) lxor b.(i) lxor c.(i)
  done

(* Round constants: digits of a fixed pseudo-random stream (splitmix of a
   nothing-up-my-sleeve seed), one per forward round plus one for the
   reflector. *)
let round_constants =
  let rng = Rsti_util.Splitmix.create 0x5254495F51524D41L (* "RTI_QRMA" *) in
  Array.init (rounds + 1) (fun _ -> cells_of (Rsti_util.Splitmix.next64 rng))

(* The per-round tweaks; the backward half replays them in reverse
   order, as in QARMA. Each is the last permuted by [h] with the LFSR
   run on [lfsr_cells]. *)
let tweak_schedule tweak =
  let ts = Array.make rounds [||] in
  ts.(0) <- cells_of tweak;
  for r = 1 to rounds - 1 do
    let t = Array.make 16 0 in
    permute h ts.(r - 1) t;
    Array.iter (fun i -> t.(i) <- lfsr t.(i)) lfsr_cells;
    ts.(r) <- t
  done;
  ts

(* Derived keys for the reflector and the backward half. *)
let w1_of w0 =
  Int64.logxor
    (Int64.logor (Int64.shift_right_logical w0 1) (Int64.shift_left w0 63))
    (Int64.shift_right_logical w0 63)

let k1_of k0 =
  let k1 = Array.make 16 0 in
  mix_columns k0 k1;
  k1

(* ------------------------------------------------------------------ *)
(* Rounds, on the state [s] with [tmp] as scratch                      *)
(* ------------------------------------------------------------------ *)

let forward_round ~k ~tweak ~const s tmp =
  add_round_key s k tweak const;
  permute tau s tmp;
  mix_columns tmp s;
  substitute sbox s

let backward_round ~k ~tweak ~const s tmp =
  substitute sbox_inv s;
  mix_columns s tmp;
  permute tau_inv tmp s;
  add_round_key s k tweak const

let reflector ~w1 ~k1 s tmp =
  for i = 0 to 15 do
    tmp.(i) <- s.(i) lxor w1.(i)
  done;
  mix_columns tmp s;
  for i = 0 to 15 do
    s.(i) <- s.(i) lxor k1.(i)
  done

let encrypt ~key ~tweak block =
  let ts = tweak_schedule tweak in
  let k = cells_of key.k0 in
  let w1 = cells_of (w1_of key.w0) and k1 = k1_of k in
  let s = cells_of (Int64.logxor block key.w0) and tmp = Array.make 16 0 in
  for i = 0 to rounds - 1 do
    forward_round ~k ~tweak:ts.(i) ~const:round_constants.(i) s tmp
  done;
  reflector ~w1 ~k1 s tmp;
  for i = 0 to rounds - 1 do
    backward_round ~k ~tweak:ts.(rounds - 1 - i) ~const:round_constants.(rounds) s tmp
  done;
  Int64.logxor (word_of s) key.w0

let decrypt ~key ~tweak block =
  let ts = tweak_schedule tweak in
  let k = cells_of key.k0 in
  let w1 = cells_of (w1_of key.w0) and k1 = k1_of k in
  let s = cells_of (Int64.logxor block key.w0) and tmp = Array.make 16 0 in
  (* Undo the backward half: it is forward_round-shaped with the pieces in
     the opposite order, so its inverse is built from the same components. *)
  for i = rounds - 1 downto 0 do
    forward_round ~k ~tweak:ts.(rounds - 1 - i) ~const:round_constants.(rounds) s tmp
  done;
  (* The reflector is an involution up to its key material. *)
  reflector ~w1:k1 ~k1:w1 s tmp;
  for i = rounds - 1 downto 0 do
    backward_round ~k ~tweak:ts.(i) ~const:round_constants.(i) s tmp
  done;
  Int64.logxor (word_of s) key.w0
