type key = { k0 : int64; w0 : int64 }

let key_of_rng rng =
  { k0 = Rsti_util.Splitmix.next64 rng; w0 = Rsti_util.Splitmix.next64 rng }

let rounds = 7

(* ------------------------------------------------------------------ *)
(* Word-sliced state: the 64-bit state is sixteen 4-bit cells, cell 0
   being the most significant nibble (QARMA's convention), held as two
   32-bit halves in [int]s: [hi] is cells 0-7, [lo] cells 8-15. Viewed
   as a 4x4 cell matrix (cell index = 4*row + col), [hi] is rows 0 and
   1 and [lo] rows 2 and 3, 16 bits a row. Every step works on whole
   halves, so a call allocates nothing and keeps no state between
   calls.                                                              *)
(* ------------------------------------------------------------------ *)

let hi32 x = Int64.to_int (Int64.shift_right_logical x 32) [@@inline]
let lo32 x = Int64.to_int x land 0xFFFF_FFFF [@@inline]

let join hi lo =
  Int64.logor (Int64.shift_left (Int64.of_int hi) 32) (Int64.of_int lo)
[@@inline]

(* Each nibble's bit 0, the plane the S-box and the LFSR slice. *)
let plane = 0x1111_1111

(* The 4-bit S-box (sigma-1 from the QARMA family) on all eight nibbles
   of a half at once, bit-sliced from its algebraic normal form: [a]..[d]
   are the nibbles' bits 0..3. The S-box is an involution, so it is its
   own inverse. *)
let sbox x =
  let a = x land plane and b = (x lsr 1) land plane in
  let c = (x lsr 2) land plane and d = (x lsr 3) land plane in
  let ab = a land b and ac = a land c and ad = a land d in
  let bd = b land d and cd = c land d in
  let s = a lxor ab lxor ac lxor cd in
  let y0 = s lxor c lxor (ab land c) lxor d lxor bd in
  let y1 = plane lxor s lxor d lxor ad lxor (ab land d) in
  let y2 = s lxor b lxor c lxor ad lxor bd lxor (ac land d) in
  let y3 = plane lxor ab lxor ac lxor (b land c) lxor bd lxor (bd land c) in
  y0 lor (y1 lsl 1) lor (y2 lsl 2) lor (y3 lsl 3)

(* Rotate every nibble of a half left by 1 and by 2. *)
let rot1 x = ((x lsl 1) land 0xEEEE_EEEE) lor ((x lsr 3) land plane) [@@inline]
let rot2 x = ((x lsl 2) land 0xCCCC_CCCC) lor ((x lsr 2) land 0x3333_3333) [@@inline]

(* Involutory MixColumns-like step, QARMA's M_{4,2}: each output cell
   XORs the other three cells of its column rotated by the circulant
   (0,1,2,1), so row r' = rot1 row(r+1) ^ rot2 row(r+2) ^ rot1 row(r+3).
   The two rot1 terms of rows 0 and 2 are rot1 (row1 ^ row3), those of
   rows 1 and 3 rot1 (row0 ^ row2): one word, [mix_shared hi lo], that
   both output halves XOR with the other half rotated by 2 —
   [mix_shared hi lo lxor rot2 lo] is the new [hi], [... lxor rot2 hi]
   the new [lo]. *)
let mix_shared hi lo =
  let x = hi lxor lo in
  rot1 (((x land 0xFFFF) lsl 16) lor (x lsr 16))
[@@inline]

(* Cell permutations by byte tables. For a permutation [perm] (new cell
   i takes old cell perm.(i)), the 64-bit word at entry [j * 256 + v] is
   what byte [j] of the state (cells 2j and 2j+1, byte 0 the most
   significant) holding [v] contributes to the permuted state; the eight
   contributions OR together. *)
let byte_table perm =
  let tab = Bytes.make (8 * 256 * 8) '\000' in
  Array.iteri
    (fun i src ->
      (* new cell i is the high (even [src]) or low nibble of byte src/2 *)
      let j = src / 2 and shift = if src land 1 = 0 then 4 else 0 in
      for v = 0 to 255 do
        let e = ((j lsl 8) lor v) lsl 3 in
        Bytes.set_int64_ne tab e
          (Int64.logor (Bytes.get_int64_ne tab e)
             (Int64.shift_left (Int64.of_int ((v lsr shift) land 0xF)) (60 - (4 * i))))
      done)
    perm;
  tab

let entry tab j v = Bytes.get_int64_ne tab (((j lsl 8) lor v) lsl 3) [@@inline]

(* The permuted state, as one word. *)
let permute tab hi lo =
  Int64.logor
    (Int64.logor
       (Int64.logor (entry tab 0 (hi lsr 24)) (entry tab 1 ((hi lsr 16) land 0xFF)))
       (Int64.logor (entry tab 2 ((hi lsr 8) land 0xFF)) (entry tab 3 (hi land 0xFF))))
    (Int64.logor
       (Int64.logor (entry tab 4 (lo lsr 24)) (entry tab 5 ((lo lsr 16) land 0xFF)))
       (Int64.logor (entry tab 6 ((lo lsr 8) land 0xFF)) (entry tab 7 (lo land 0xFF))))
[@@inline]

let invert perm =
  let inv = Array.make 16 0 in
  Array.iteri (fun i p -> inv.(p) <- i) perm;
  inv

(* Cell shuffle (QARMA's tau), the tweak-update permutation (QARMA's
   h), and their inverses. *)
let tau = [| 0; 11; 6; 13; 10; 1; 12; 7; 5; 14; 3; 8; 15; 4; 9; 2 |]
let h = [| 6; 5; 14; 15; 0; 1; 2; 3; 7; 12; 13; 4; 8; 9; 10; 11 |]
let tau_tab = byte_table tau
let tau_inv_tab = byte_table (invert tau)
let h_tab = byte_table h
let h_inv_tab = byte_table (invert h)

(* Cells whose nibble runs through the tweak LFSR each round, as a mask
   of each half. *)
let lfsr_cells = [ 0; 1; 3; 4; 8; 11; 13 ]

let lfsr_mask half =
  List.fold_left
    (fun m i -> if i / 8 = half then m lor (0xF lsl (28 - (4 * (i mod 8)))) else m)
    0 lfsr_cells

let lfsr_hi = lfsr_mask 0
let lfsr_lo = lfsr_mask 1

(* The 4-bit LFSR (b3,b2,b1,b0) -> (b0 xor b1, b3, b2, b1) on the cells
   of [mask], and its inverse (b3,b2,b1,b0) -> (b2, b1, b0, b3 xor b0). *)
let lfsr mask x =
  let y = ((x lsr 1) land 0x7777_7777) lor (((x lxor (x lsr 1)) land plane) lsl 3) in
  x lxor ((x lxor y) land mask)

let lfsr_inv mask x =
  let y = ((x lsl 1) land 0xEEEE_EEEE) lor (((x lsr 3) lxor x) land plane) in
  x lxor ((x lxor y) land mask)

(* Round constants: digits of a fixed pseudo-random stream (splitmix of a
   nothing-up-my-sleeve seed), one per forward round plus one for the
   reflector. *)
let rc_hi, rc_lo =
  let rng = Rsti_util.Splitmix.create 0x5254495F51524D41L (* "RTI_QRMA" *) in
  let words = Array.init (rounds + 1) (fun _ -> Rsti_util.Splitmix.next64 rng) in
  (Array.map hi32 words, Array.map lo32 words)

(* The derived whitening key of the reflector. *)
let w1_of w0 =
  Int64.logxor
    (Int64.logor (Int64.shift_right_logical w0 1) (Int64.shift_left w0 63))
    (Int64.shift_right_logical w0 63)
[@@inline]

(* ------------------------------------------------------------------ *)
(* The cipher                                                          *)
(* ------------------------------------------------------------------ *)

(* Both directions share one shape: [rounds] forward rounds with the
   tweaks t0..t6, the reflector, [rounds] backward rounds with t6..t0.
   A forward round is add-round-key, tau, MixColumns, S-box; a backward
   round undoes one. Encryption's forward half uses the round constants
   c0..c6 and its backward half c7; decryption swaps the two and the
   reflector's keys, which undoes encryption stage by stage. The tweak
   walks forward by h and the LFSR, and back by their inverses, so no
   schedule is stored. *)
let crypt ~inverse key b ~tweak ~block ~dst =
  let w0 = key.w0 in
  let khi = hi32 key.k0 and klo = lo32 key.k0 in
  let w1 = w1_of w0 in
  let m = mix_shared khi klo in
  let k1hi = m lxor rot2 klo and k1lo = m lxor rot2 khi in
  let r1hi = if inverse then k1hi else hi32 w1 in
  let r1lo = if inverse then k1lo else lo32 w1 in
  let r2hi = if inverse then hi32 w1 else k1hi in
  let r2lo = if inverse then lo32 w1 else k1lo in
  let x = Int64.logxor (Bytes.get_int64_ne b block) w0 in
  let shi = ref (hi32 x) and slo = ref (lo32 x) in
  let t = Bytes.get_int64_ne b tweak in
  let thi = ref (hi32 t) and tlo = ref (lo32 t) in
  for i = 0 to rounds - 1 do
    let c = if inverse then rounds else i in
    let ahi = !shi lxor khi lxor !thi lxor rc_hi.(c) in
    let alo = !slo lxor klo lxor !tlo lxor rc_lo.(c) in
    let p = permute tau_tab ahi alo in
    let phi = hi32 p and plo = lo32 p in
    let m = mix_shared phi plo in
    shi := sbox (m lxor rot2 plo);
    slo := sbox (m lxor rot2 phi);
    if i < rounds - 1 then begin
      let n = permute h_tab !thi !tlo in
      thi := lfsr lfsr_hi (hi32 n);
      tlo := lfsr lfsr_lo (lo32 n)
    end
  done;
  let ahi = !shi lxor r1hi and alo = !slo lxor r1lo in
  let m = mix_shared ahi alo in
  shi := m lxor rot2 alo lxor r2hi;
  slo := m lxor rot2 ahi lxor r2lo;
  for i = 0 to rounds - 1 do
    let c = if inverse then rounds - 1 - i else rounds in
    let shi' = sbox !shi and slo' = sbox !slo in
    let m = mix_shared shi' slo' in
    let mhi = m lxor rot2 slo' and mlo = m lxor rot2 shi' in
    let p = permute tau_inv_tab mhi mlo in
    shi := hi32 p lxor khi lxor !thi lxor rc_hi.(c);
    slo := lo32 p lxor klo lxor !tlo lxor rc_lo.(c);
    if i < rounds - 1 then begin
      let phi = lfsr_inv lfsr_hi !thi and plo = lfsr_inv lfsr_lo !tlo in
      let p = permute h_inv_tab phi plo in
      thi := hi32 p;
      tlo := lo32 p
    end
  done;
  Bytes.set_int64_ne b dst (Int64.logxor (join !shi !slo) w0)

let encrypt_at key b ~tweak ~block ~dst = crypt ~inverse:false key b ~tweak ~block ~dst

let run ~inverse ~key ~tweak block =
  let b = Bytes.create 16 in
  Bytes.set_int64_ne b 0 tweak;
  Bytes.set_int64_ne b 8 block;
  crypt ~inverse key b ~tweak:0 ~block:8 ~dst:8;
  Bytes.get_int64_ne b 8

let encrypt ~key ~tweak block = run ~inverse:false ~key ~tweak block
let decrypt ~key ~tweak block = run ~inverse:true ~key ~tweak block
