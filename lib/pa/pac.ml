module Bits = Rsti_util.Bits

type memo_key = { key : Key.which; modifier : int64; input : int64 }

module Memo = Hashtbl.Make (struct
  type t = memo_key

  let equal a b =
    a.key == b.key && Int64.equal a.modifier b.modifier && Int64.equal a.input b.input

  let hash m =
    let h = Int64.logxor m.input (Int64.mul m.modifier 0x9E37_79B9_7F4A_7C15L) in
    Hashtbl.hash (Int64.to_int (Int64.logxor h (Int64.shift_right_logical h 29)))
    lxor Hashtbl.hash m.key
end)

type ctx = {
  keys : Key.t;
  layout : Vaddr.config;
  (* PAC computations repeat heavily (same slot, same modifier, every loop
     iteration), so the truncated cipher output is memoized. This is a
     simulator-speed concern only; results are bit-identical. *)
  cache : int64 Memo.t;
}

let make ?(layout = Vaddr.default) ~seed () =
  { keys = Key.generate ~seed; layout; cache = Memo.create 4096 }

(* The cipher input: the canonical address, with the top byte zeroed under
   TBI so that software tags do not perturb the PAC. *)
let cipher_input ctx ptr =
  let p = Vaddr.canonical ctx.layout ptr in
  if ctx.layout.Vaddr.tbi then Vaddr.with_top_byte p 0 else p

let compute_pac ctx ~key ~modifier ptr =
  let input = cipher_input ctx ptr in
  let cache_key = { key; modifier; input } in
  match Memo.find ctx.cache cache_key with
  | pac -> pac
  | exception Not_found ->
      let k = Key.lookup ctx.keys key in
      let full = Qarma.encrypt ~key:k ~tweak:modifier input in
      let pac = Int64.logand full (Bits.mask (Vaddr.pac_width ctx.layout)) in
      if Memo.length ctx.cache < 1_000_000 then
        Memo.replace ctx.cache cache_key pac;
      pac

let sign ctx ~key ~modifier ptr =
  if Int64.equal ptr 0L then 0L
  else begin
    let canon = Vaddr.canonical ctx.layout ptr in
    let pac = compute_pac ctx ~key ~modifier canon in
    Vaddr.embed_pac ctx.layout ~pac canon
  end

let auth ctx ~key ~modifier ptr =
  if Int64.equal ptr 0L then Ok 0L
  else begin
  let expected = compute_pac ctx ~key ~modifier ptr in
  let found = Vaddr.extract_pac ctx.layout ptr in
  if Int64.equal expected found then Ok (Vaddr.canonical ctx.layout ptr)
  else Error (Vaddr.corrupt ctx.layout ptr)
  end

let strip ctx ptr = Vaddr.canonical ctx.layout ptr

let is_signed ctx ptr = not (Vaddr.is_canonical ctx.layout ptr)

let keys ctx = ctx.keys
let layout ctx = ctx.layout
