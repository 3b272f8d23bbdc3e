type fault =
  | Unmapped of int64
  | Non_canonical of int64
  | Read_only of int64

exception Fault of fault

let fault_to_string = function
  | Unmapped a -> Printf.sprintf "unmapped address 0x%Lx" a
  | Non_canonical a ->
      Printf.sprintf "non-canonical address 0x%Lx (corrupted pointer?)" a
  | Read_only a -> Printf.sprintf "write to read-only address 0x%Lx" a

let page_bits = 12
let page_size = 1 lsl page_bits

module Pages = Hashtbl.Make (Int)

(* Pages are keyed by page number; a canonical address has 48 bits, so
   the address and its page number fit an [int]. In front of the table
   sits a direct-mapped cache: slot [slot_of no] holds page [no] once an
   access has looked it up. Pages are never unmapped, so a slot cannot go
   stale. *)
let cache_bits = 7

type t = {
  pages : bytes Pages.t;
  cached_no : int array;  (* the page number in each slot, -1 when empty *)
  cached : bytes array;
  mutable ro_regions : (int * int) list;  (* inclusive lo, exclusive hi *)
}

let create () =
  {
    pages = Pages.create 256;
    cached_no = Array.make (1 lsl cache_bits) (-1);
    cached = Array.make (1 lsl cache_bits) Bytes.empty;
    ro_regions = [];
  }

(* Fibonacci hashing: the top bits of the page number times 2^63/phi, so
   the consecutive pages of each segment spread over the slots and the
   segments' first pages do not meet in one. *)
let slot_of no = (no * -0x30E44323405AC1F5) lsr (63 - cache_bits) [@@inline]

let check_canonical a =
  if Int64.shift_right_logical a 48 <> 0L then raise (Fault (Non_canonical a))
[@@inline]

let offset_of a = Int64.to_int a land (page_size - 1) [@@inline]

(* The cache missed: look the page up and fill its slot. [a] is the
   canonical address being accessed, as an [int]. *)
let fill t a =
  let no = a lsr page_bits in
  match Pages.find t.pages no with
  | p ->
      let s = slot_of no in
      t.cached_no.(s) <- no;
      t.cached.(s) <- p;
      p
  | exception Not_found -> raise (Fault (Unmapped (Int64.of_int a)))

let get_page t a =
  check_canonical a;
  let a = Int64.to_int a in
  let no = a lsr page_bits in
  let s = slot_of no in
  if t.cached_no.(s) = no then t.cached.(s) else fill t a
[@@inline]

let map t ~addr ~size =
  check_canonical addr;
  let first = Int64.to_int addr lsr page_bits
  and last =
    Int64.to_int (Int64.add addr (Int64.of_int (max 0 (size - 1)))) lsr page_bits
  in
  for no = first to last do
    if t.cached_no.(slot_of no) <> no && not (Pages.mem t.pages no) then
      Pages.replace t.pages no (Bytes.make page_size '\000')
  done

let protect t ~addr ~size =
  let lo = Int64.to_int addr in
  t.ro_regions <- (lo, lo + size) :: t.ro_regions

let rec in_region (a : int) = function
  | [] -> false
  | (lo, hi) :: rest -> (a >= lo && a < hi) || in_region a rest

(* A non-canonical address lies in no region, which are canonical, so the
   canonical check may come first. *)
let check_writable t a =
  check_canonical a;
  if t.ro_regions <> [] && in_region (Int64.to_int a) t.ro_regions then
    raise (Fault (Read_only a))
[@@inline]

let read_u8 t a = Char.code (Bytes.get (get_page t a) (offset_of a))

let write_u8_unchecked t a v =
  Bytes.set (get_page t a) (offset_of a) (Char.chr (v land 0xFF))

let write_u8 t a v =
  check_writable t a;
  write_u8_unchecked t a v

let read_u64 t a =
  (* Fast path when the word does not straddle a page. *)
  let off = offset_of a in
  if off + 8 <= page_size then Bytes.get_int64_le (get_page t a) off
  else begin
    let v = ref 0L in
    for i = 7 downto 0 do
      v := Int64.logor (Int64.shift_left !v 8)
             (Int64.of_int (read_u8 t (Int64.add a (Int64.of_int i))))
    done;
    !v
  end

let write_u64_raw t a v =
  let off = offset_of a in
  if off + 8 <= page_size then Bytes.set_int64_le (get_page t a) off v
  else
    for i = 0 to 7 do
      write_u8_unchecked t (Int64.add a (Int64.of_int i))
        (Int64.to_int (Int64.logand (Int64.shift_right_logical v (8 * i)) 0xFFL))
    done

let write_u64 t a v =
  check_writable t a;
  write_u64_raw t a v

(* The load/store unit moves words between memory and a register file in
   place, so no [int64] crosses into or out of this module boxed; only a
   word that straddles two pages goes through [read_u64]/[write_u64_raw]. *)
let load t regs ~dst ~addr ~byte =
  let a = Bytes.get_int64_ne regs addr in
  let off = offset_of a in
  if byte then
    Bytes.set_int64_ne regs dst (Int64.of_int (Bytes.get_uint8 (get_page t a) off))
  else if off + 8 <= page_size then
    Bytes.set_int64_ne regs dst (Bytes.get_int64_le (get_page t a) off)
  else Bytes.set_int64_ne regs dst (read_u64 t a)

let store t regs ~src ~addr ~byte =
  let a = Bytes.get_int64_ne regs addr in
  check_writable t a;
  let off = offset_of a in
  if byte then
    Bytes.set_uint8 (get_page t a) off
      (Int64.to_int (Bytes.get_int64_ne regs src) land 0xFF)
  else if off + 8 <= page_size then
    Bytes.set_int64_le (get_page t a) off (Bytes.get_int64_ne regs src)
  else write_u64_raw t a (Bytes.get_int64_ne regs src)

let read_bytes t a n =
  let out = Bytes.create n in
  for i = 0 to n - 1 do
    Bytes.set out i (Char.chr (read_u8 t (Int64.add a (Int64.of_int i))))
  done;
  out

let write_bytes t a b =
  for i = 0 to Bytes.length b - 1 do
    write_u8 t (Int64.add a (Int64.of_int i)) (Char.code (Bytes.get b i))
  done

let read_cstring t a =
  let buf = Buffer.create 32 in
  let rec go i =
    if i >= 65536 then Buffer.contents buf
    else begin
      let c = read_u8 t (Int64.add a (Int64.of_int i)) in
      if c = 0 then Buffer.contents buf
      else begin
        Buffer.add_char buf (Char.chr c);
        go (i + 1)
      end
    end
  in
  go 0

let write_cstring t a s =
  String.iteri (fun i c -> write_u8 t (Int64.add a (Int64.of_int i)) (Char.code c)) s;
  write_u8 t (Int64.add a (Int64.of_int (String.length s))) 0
