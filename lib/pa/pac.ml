(* PAC computations repeat heavily (same slot, same modifier, every loop
   iteration), so each context memoizes the cipher in a direct-mapped
   table: one [bytes] of [entry]-byte entries, each holding a tag (the
   key's index plus one; 0 marks an empty entry), the modifier, the
   input and the full 64-bit cipher output. A miss runs QARMA straight
   into its entry and evicts what was there. The table starts at
   [2^min_bits] entries and doubles, keeping what it holds, whenever it
   has missed more than a quarter as many times as it has entries since
   it last grew, up to [2^max_bits]: direct-mapped entries that
   interleave evict each other, so the table grows well past the number
   of distinct PACs (over the 300 simulate rows, quartering the
   threshold cut misses from 3.7 to 2.2 per distinct PAC). This is a
   simulator-speed concern only: results are bit-identical whatever the
   table holds. *)
let entry = 32
let min_bits = 8
let max_bits = 15
let memo_cap = 1 lsl max_bits

type ctx = {
  keys : Key.t;
  layout : Vaddr.config;
  pac_mask : int;  (* the low [pac_width] bits *)
  mutable memo : bytes;
  mutable bits : int;  (* the memo holds [2^bits] entries *)
  mutable misses : int;  (* since the memo last grew *)
}

let make ?(layout = Vaddr.default) ~seed () =
  {
    keys = Key.generate ~seed;
    layout;
    pac_mask = (1 lsl Vaddr.pac_width layout) - 1;
    memo = Bytes.make (entry lsl min_bits) '\000';
    bits = min_bits;
    misses = 0;
  }

let layout ctx = ctx.layout
let memo_entries ctx = 1 lsl ctx.bits

(* Multiply-shift: the top [bits] bits of a product with an odd
   constant, over the input mixed with the modifier and the tag. *)
let slot bits tag ~modifier ~input =
  let x = (Int64.to_int input * 0x2545_F491_4F6C_DD1D) lxor Int64.to_int modifier lxor tag in
  ((x * -0x30E4_4323_405A_C1F5) lsr (63 - bits)) * entry
[@@inline]

let grow ctx =
  let old = ctx.memo in
  let bits = ctx.bits + 1 in
  let memo = Bytes.make (entry lsl bits) '\000' in
  for e = 0 to (Bytes.length old / entry) - 1 do
    let e = e * entry in
    let tag = Int64.to_int (Bytes.get_int64_ne old e) in
    if tag <> 0 then
      Bytes.blit old e memo
        (slot bits tag ~modifier:(Bytes.get_int64_ne old (e + 8))
           ~input:(Bytes.get_int64_ne old (e + 16)))
        entry
  done;
  ctx.memo <- memo;
  ctx.bits <- bits;
  ctx.misses <- 0

let missed ctx =
  ctx.misses <- ctx.misses + 1;
  if ctx.misses > 1 lsl (ctx.bits - 2) && ctx.bits < max_bits then grow ctx

(* The full cipher output for (key, modifier, input), from the memo or
   by running QARMA into the entry. Inlined, so the [int64]s stay
   unboxed; a miss calls out with offsets only. *)
let cipher ctx ~key ~modifier ~input =
  let tag = Key.int_of_which key + 1 in
  let m = ctx.memo in
  let e = slot ctx.bits tag ~modifier ~input in
  if
    not
      (Int64.equal (Bytes.get_int64_ne m (e + 16)) input
      && Int64.equal (Bytes.get_int64_ne m (e + 8)) modifier
      && Int64.equal (Bytes.get_int64_ne m e) (Int64.of_int tag))
  then begin
    Bytes.set_int64_ne m e (Int64.of_int tag);
    Bytes.set_int64_ne m (e + 8) modifier;
    Bytes.set_int64_ne m (e + 16) input;
    Qarma.encrypt_at (Key.lookup ctx.keys key) m ~tweak:(e + 8) ~block:(e + 16)
      ~dst:(e + 24);
    missed ctx
  end;
  Bytes.get_int64_ne m (e + 24)
[@@inline]

(* The truncated PAC of the pointer at [src] under the modifier at
   [modifier]. *)
let pac ctx ~key regs ~src ~modifier =
  let input = Int64.of_int (Vaddr.pac_input_at ctx.layout regs src) in
  Int64.to_int (cipher ctx ~key ~modifier:(Bytes.get_int64_ne regs modifier) ~input)
  land ctx.pac_mask
[@@inline]

let is_null regs src = Int64.equal (Bytes.get_int64_ne regs src) 0L [@@inline]

let sign ctx ~key regs ~dst ~src ~modifier =
  if is_null regs src then Bytes.set_int64_ne regs dst 0L
  else begin
    let pac = pac ctx ~key regs ~src ~modifier in
    Vaddr.canonical_at ctx.layout regs ~dst ~src;
    Vaddr.embed_pac_at ctx.layout regs ~dst ~src:dst ~pac
  end

let auth ctx ~key regs ~dst ~src ~modifier =
  if is_null regs src then begin
    Bytes.set_int64_ne regs dst 0L;
    true
  end
  else begin
    let ok = pac ctx ~key regs ~src ~modifier = Vaddr.extract_pac_at ctx.layout regs src in
    if ok then Vaddr.canonical_at ctx.layout regs ~dst ~src
    else Vaddr.corrupt_at ctx.layout regs ~dst ~src;
    ok
  end

let strip ctx regs ~dst ~src = Vaddr.canonical_at ctx.layout regs ~dst ~src

let is_signed ctx regs src = not (Vaddr.is_canonical_at ctx.layout regs src)

let mac ctx ~key regs ~dst ~src ~modifier =
  Bytes.set_int64_ne regs dst
    (cipher ctx ~key ~modifier:(Bytes.get_int64_ne regs modifier)
       ~input:(Bytes.get_int64_ne regs src))
