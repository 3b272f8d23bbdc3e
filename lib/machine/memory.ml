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
   its page number fits an [int]. Pages are never unmapped, so the
   last-page cache cannot go stale. *)
type t = {
  pages : bytes Pages.t;
  mutable last_no : int;  (* -1 until the first access *)
  mutable last : bytes;
  mutable ro_regions : (int64 * int64) list; (* inclusive lo, exclusive hi *)
}

let create () =
  { pages = Pages.create 256; last_no = -1; last = Bytes.empty; ro_regions = [] }

let canonical_limit = 0x0001_0000_0000_0000L (* 2^48 *)

let check_canonical a =
  if Int64.unsigned_compare a canonical_limit >= 0 then
    raise (Fault (Non_canonical a))

let page_of a = Int64.to_int (Int64.shift_right_logical a page_bits)
let offset_of a = Int64.to_int a land (page_size - 1)

let get_page t a =
  check_canonical a;
  let no = page_of a in
  if no = t.last_no then t.last
  else
    match Pages.find t.pages no with
    | p ->
        t.last_no <- no;
        t.last <- p;
        p
    | exception Not_found -> raise (Fault (Unmapped a))

let map t ~addr ~size =
  check_canonical addr;
  let first = page_of addr
  and last = page_of (Int64.add addr (Int64.of_int (max 0 (size - 1)))) in
  for no = first to last do
    if no <> t.last_no && not (Pages.mem t.pages no) then
      Pages.replace t.pages no (Bytes.make page_size '\000')
  done

let protect t ~addr ~size =
  t.ro_regions <- (addr, Int64.add addr (Int64.of_int size)) :: t.ro_regions

let rec in_region a = function
  | [] -> false
  | (lo, hi) :: rest ->
      (Int64.compare a lo >= 0 && Int64.compare a hi < 0) || in_region a rest

let read_u8 t a = Char.code (Bytes.get (get_page t a) (offset_of a))

let write_u8_unchecked t a v =
  Bytes.set (get_page t a) (offset_of a) (Char.chr (v land 0xFF))

let write_u8 t a v =
  if in_region a t.ro_regions then raise (Fault (Read_only a));
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
  if in_region a t.ro_regions then raise (Fault (Read_only a));
  write_u64_raw t a v

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
