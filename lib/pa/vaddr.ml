type config = { va_bits : int; tbi : bool }

let default = { va_bits = 48; tbi = true }
let no_tbi = { va_bits = 48; tbi = false }

(* PAC field part 1: bits [va_bits .. 54] (bit 55 is the selector).
   Part 2 (only when TBI is off): bits [56 .. 63]. The arithmetic stays
   on [Int64] within this module, whose functions inline into each
   other: a call into another module boxes every [int64] it passes or
   returns, which is why the PA unit calls the [_at] forms below. *)

let low_width c = 55 - c.va_bits
let high_width c = if c.tbi then 0 else 8

let pac_width c = low_width c + high_width c

(* The low [w] bits, for 0 <= w < 64. *)
let ones w = Int64.pred (Int64.shift_left 1L w) [@@inline]

let top_byte_mask = 0xFF00_0000_0000_0000L

let canonical c ptr =
  let va = ones c.va_bits in
  let p =
    if Int64.logand ptr 0x0080_0000_0000_0000L <> 0L then Int64.logor ptr (Int64.lognot va)
    else Int64.logand ptr va
  in
  if c.tbi then
    (* Preserve the software tag byte: hardware ignores it anyway. *)
    Int64.logor (Int64.logand p (Int64.lognot top_byte_mask))
      (Int64.logand ptr top_byte_mask)
  else p
[@@inline]

let is_canonical c ptr = Int64.equal (canonical c ptr) ptr [@@inline]

let embed_pac c ~pac ptr =
  let w1 = low_width c in
  let m1 = Int64.shift_left (ones w1) c.va_bits in
  let p =
    Int64.logor (Int64.logand ptr (Int64.lognot m1))
      (Int64.logand (Int64.shift_left pac c.va_bits) m1)
  in
  if high_width c = 0 then p
  else
    Int64.logor (Int64.logand p (Int64.lognot top_byte_mask))
      (Int64.shift_left (Int64.shift_right_logical pac w1) 56)
[@@inline]

let extract_pac c ptr =
  let w1 = low_width c in
  let low = Int64.logand (Int64.shift_right_logical ptr c.va_bits) (ones w1) in
  if high_width c = 0 then low
  else Int64.logor low (Int64.shift_left (Int64.shift_right_logical ptr 56) w1)
[@@inline]

let corrupt c ptr =
  (* Flip the two most significant bits of the PAC field. *)
  let w = pac_width c in
  let pac = extract_pac c ptr in
  let flipped = Int64.logxor pac (Int64.shift_left 3L (w - 2)) in
  embed_pac c ~pac:flipped ptr
[@@inline]

let top_byte ptr = Int64.to_int (Int64.shift_right_logical ptr 56) [@@inline]

let with_top_byte ptr b =
  Int64.logor (Int64.logand ptr (Int64.lognot top_byte_mask))
    (Int64.shift_left (Int64.of_int (b land 0xFF)) 56)
[@@inline]

(* What the PAC covers: the canonical address, without the software tag
   under TBI. Its top two bits are equal (copies of the selector, or
   zero under TBI), so it fits an [int]. *)
let pac_input c ptr =
  let p = canonical c ptr in
  if c.tbi then with_top_byte p 0 else p
[@@inline]

let get = Bytes.get_int64_ne
let set = Bytes.set_int64_ne

let canonical_at c b ~dst ~src = set b dst (canonical c (get b src))
let is_canonical_at c b off = is_canonical c (get b off)
let embed_pac_at c b ~dst ~src ~pac = set b dst (embed_pac c ~pac:(Int64.of_int pac) (get b src))
let extract_pac_at c b off = Int64.to_int (extract_pac c (get b off))
let corrupt_at c b ~dst ~src = set b dst (corrupt c (get b src))
let pac_input_at c b off = Int64.to_int (pac_input c (get b off))
let top_byte_at b off = top_byte (get b off)
let with_top_byte_at b ~dst ~src tag = set b dst (with_top_byte (get b src) tag)
