module Ctype = Rsti_minic.Ctype
module Ir = Rsti_ir.Ir
module Ast = Rsti_minic.Ast

type trap =
  | Mem_fault of { fault : string; func : string; after_auth_fail : bool }
  | Bad_indirect_call of { target : int64; func : string; after_auth_fail : bool }
  | Div_by_zero of string
  | Stack_overflow
  | Step_limit_exceeded
  | Unknown_function of string
  | Pac_auth_failure of { func : string; modifier : int64; ptr : int64 }
  | Cfi_violation of { func : string; target : string }

let trap_to_string = function
  | Mem_fault { fault; func; after_auth_fail } ->
      Printf.sprintf "memory fault in %s: %s%s" func fault
        (if after_auth_fail then " [after PAC authentication failure]" else "")
  | Bad_indirect_call { target; func; after_auth_fail } ->
      Printf.sprintf "indirect call to invalid target 0x%Lx in %s%s" target func
        (if after_auth_fail then " [after PAC authentication failure]" else "")
  | Div_by_zero f -> "division by zero in " ^ f
  | Pac_auth_failure { func; modifier; ptr } ->
      Printf.sprintf
        "PAC authentication failure in %s (modifier 0x%Lx, pointer 0x%Lx): FPAC trap"
        func modifier ptr
  | Cfi_violation { func; target } ->
      Printf.sprintf "CFI violation in %s: indirect call to %s with mismatched signature"
        func target
  | Stack_overflow -> "stack overflow"
  | Step_limit_exceeded -> "step limit exceeded"
  | Unknown_function f -> "unknown function " ^ f

type status = Exited of int64 | Trapped of trap

type counts = {
  mutable instrs : int;
  mutable loads : int;
  mutable stores : int;
  mutable pac_signs : int;
  mutable pac_auths : int;
  mutable pac_strips : int;
  mutable pp_calls : int;
}

(* One profiled (function, source line) pair. Attribution is exact, not
   sampled: every cycle a profiled machine charges goes through
   [charge], which also adds it to the current site, so the sites of an
   outcome partition its cycle total. [s_pac_charges] counts the [pac]
   prices charged at the site (a resign's two; a pp op's sign or auth is
   priced at [pp] instead). *)
type site = {
  s_func : string;
  s_line : int;  (* 0 when the instruction carries no !dbg location *)
  mutable s_cycles : int;
  mutable s_instrs : int;
  mutable s_pac_charges : int;
  mutable s_strips : int;
  mutable s_pp_calls : int;
}

let new_site func line =
  {
    s_func = func;
    s_line = line;
    s_cycles = 0;
    s_instrs = 0;
    s_pac_charges = 0;
    s_strips = 0;
    s_pp_calls = 0;
  }

(* Hottest first, ties in site order: the one order of a profile. *)
let by_cycles a b =
  match compare b.s_cycles a.s_cycles with
  | 0 -> compare (a.s_func, a.s_line) (b.s_func, b.s_line)
  | c -> c

(* One PAC-unit operation captured by the flight recorder. [op_static_mod]
   is the modifier *constant* carried by the instruction (Mconst c and
   Mloc c both record c, before any slot-address XOR), which is exactly
   the class identity the static Equiv partition uses — incidents
   correlate with their static class through it. [op_modifier] is the
   runtime modifier actually fed to the PAC unit. *)
type op_kind =
  | Op_sign
  | Op_auth
  | Op_resign
  | Op_strip
  | Op_pp_sign
  | Op_pp_auth

type pac_op = {
  op_kind : op_kind;
  op_func : string;
  op_line : int;        (* 0 when the instruction carries no !dbg location *)
  op_key : Rsti_pa.Key.which;
  op_static_mod : int64;
  op_modifier : int64;
  op_src : int64;
  op_result : int64;
  op_ok : bool;         (* false only for a failing auth/resign *)
  op_cycle : int;
  op_instr : int;
}

(* The structured security-event record emitted at a failing auth. The
   expected signer is the failing site's own (static modifier, key) —
   the discipline says whoever signed this slot must have used exactly
   that pair; the observed signer is the sign operation that actually
   produced the failing pointer value ([None] = the value was never
   signed in this run: a raw overwrite). Detection latency is measured
   from the first attacker store (scenarios tag it through the intruder
   API) to the failing auth, in both cycles and instructions; [None]
   when no corruption was tagged (an organic failure). *)
type incident = {
  inc_func : string;
  inc_line : int;
  inc_key : Rsti_pa.Key.which;
  inc_static_mod : int64;
  inc_modifier : int64;
  inc_ptr : int64;
  inc_signer : pac_op option;
  inc_window : pac_op list;  (* last-N flight-recorder ops, oldest first *)
  inc_cycle : int;
  inc_instr : int;
  inc_corrupt : (int * int) option;  (* (cycle, instr) of the first tagged store *)
  inc_latency_cycles : int option;
  inc_latency_instrs : int option;
}

type intruder = {
  read_word : int64 -> int64;
  write_word : int64 -> int64 -> unit;
  read_string : int64 -> string;
  write_string : int64 -> string -> unit;
  global_addr : string -> int64;
  func_addr : string -> int64;
  heap_allocs : unit -> (int64 * int) list;
  note : string -> unit;
}

type trigger = On_call of string * int | On_extern of string * int

type attack = { trigger : trigger; action : intruder -> unit }

(* ------------------------------------------------------------------ *)
(* Register files                                                      *)
(* ------------------------------------------------------------------ *)

(* Unchecked word accesses, for an offset already known to lie inside
   the [bytes]: a pre-checked register, or a word inside a page. *)
external get64u : bytes -> int -> int64 = "%caml_bytes_get64u"
external set64u : bytes -> int -> int64 -> unit = "%caml_bytes_set64u"
external swap64 : int64 -> int64 = "%bswap_int64"

let get64u_le b i = if Sys.big_endian then swap64 (get64u b i) else get64u b i [@@inline]
let set64u_le b i v = set64u b i (if Sys.big_endian then swap64 v else v) [@@inline]

(* A register file is a [bytes] of native-endian 64-bit registers. The
   pre-checked forms hold each register as its byte offset; resolution
   gave every operand a register of the file, so a read is unchecked,
   and a destination is a register of the file or -8, the bad
   destination, whose write raises what an out-of-bounds register
   always raised. *)
let get_at regs o = get64u regs o [@@inline]

let set_at regs o v =
  if o < 0 then invalid_arg "index out of bounds";
  set64u regs o v
[@@inline]

let get_f regs o = Int64.float_of_bits (get64u regs o) [@@inline]

(* ------------------------------------------------------------------ *)
(* Memory: the load/store unit                                         *)
(* ------------------------------------------------------------------ *)

(* The load/store unit lives in this compilation unit so that [exec]'s
   loads and stores inline it: a page-cache hit makes no call. *)
module Memory = struct
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
    mutable ro_lo : int;  (* the regions' hull: no address outside [ro_lo, ro_hi) *)
    mutable ro_hi : int;  (* is read-only, so a write there tests no region *)
  }

  let create () =
    {
      pages = Pages.create 256;
      cached_no = Array.make (1 lsl cache_bits) (-1);
      cached = Array.make (1 lsl cache_bits) Bytes.empty;
      ro_regions = [];
      ro_lo = max_int;
      ro_hi = 0;
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
    t.ro_regions <- (lo, lo + size) :: t.ro_regions;
    t.ro_lo <- min t.ro_lo lo;
    t.ro_hi <- max t.ro_hi (lo + size)

  let rec in_region (a : int) = function
    | [] -> false
    | (lo, hi) :: rest -> (a >= lo && a < hi) || in_region a rest

  (* A non-canonical address lies in no region, which are canonical, so the
     canonical check may come first. *)
  let check_writable t a =
    check_canonical a;
    let i = Int64.to_int a in
    if i >= t.ro_lo && i < t.ro_hi && in_region i t.ro_regions then
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

  (* The load/store unit: a word or a byte moves between memory and a
     register file in place, [dst], [src] and [addr] being pre-checked
     register offsets, so no [int64] is boxed on the way. Each access
     inlines: a page-cache hit makes no call, a miss calls [fill], and
     only a word that straddles two pages goes through [read_u64] or
     [write_u64_raw]. A page is [page_size] bytes and the word's offset
     was just tested, so the page is read and written unchecked. *)
  let load_word t regs ~dst ~addr =
    let a = get_at regs addr in
    let off = offset_of a in
    if off + 8 <= page_size then set_at regs dst (get64u_le (get_page t a) off)
    else set_at regs dst (read_u64 t a)
  [@@inline]

  let load_byte t regs ~dst ~addr =
    let a = get_at regs addr in
    set_at regs dst (Int64.of_int (Char.code (Bytes.unsafe_get (get_page t a) (offset_of a))))
  [@@inline]

  let store_word t regs ~src ~addr =
    let a = get_at regs addr in
    check_writable t a;
    let off = offset_of a in
    if off + 8 <= page_size then set64u_le (get_page t a) off (get_at regs src)
    else write_u64_raw t a (get_at regs src)
  [@@inline]

  let store_byte t regs ~src ~addr =
    let a = get_at regs addr in
    check_writable t a;
    Bytes.unsafe_set (get_page t a) (offset_of a)
      (Char.unsafe_chr (Int64.to_int (get_at regs src) land 0xFF))
  [@@inline]

  (* The unit's entry for callers whose offsets resolution did not check:
     each is checked before memory is touched. *)
  let in_file regs o =
    if o < 0 || o > Bytes.length regs - 8 then invalid_arg "index out of bounds"

  let load t regs ~dst ~addr ~byte =
    in_file regs addr;
    in_file regs dst;
    if byte then load_byte t regs ~dst ~addr else load_word t regs ~dst ~addr

  let store t regs ~src ~addr ~byte =
    in_file regs addr;
    in_file regs src;
    if byte then store_byte t regs ~src ~addr else store_word t regs ~src ~addr

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
end

(* ------------------------------------------------------------------ *)
(* Resolved code                                                       *)
(* ------------------------------------------------------------------ *)

(* A function's resolved view, built on its first call: the same IR
   with every name, layout and type decision taken once.

   Every operand is a register of the function's register file, a
   [bytes] of 64-bit registers. A constant operand (an immediate, a
   float's bits, null, or the address of a global, a function or a
   string) reads a register above [nregs] that each call's register file
   holds from the start. An operand that cannot be resolved, or names a
   register the function does not have, is a negative index [lnot k]
   whose read raises [bad.(k)]; a destination outside the registers is
   [-1], whose write raises [Invalid_argument] as an out-of-bounds
   register did. An instruction that cannot be resolved becomes [Fail].
   So a bad name, type or register fails only when it runs.

   Every instruction but a call, a PA op and a pp op takes a pre-checked
   form: it holds each register as its byte offset in the file, so it
   runs with no negative-operand test. One with an operand that cannot
   be resolved becomes [Fail] of what reading that operand raises (the
   first bad one, in the order the instruction reads them). *)
type operand = int

type callee =
  | Defined of int  (* index into [t.funcs] *)
  | Libc of int     (* index into [t.libc] *)
  | Missing of string
  | Via of operand

type pp =
  | Pp_add
  | Pp_sign of { dst : int; src : operand; ce : int; slot : operand }
  | Pp_auth of { dst : int; src : operand; slot : operand }
  | Pp_add_tbi of { dst : int; src : operand; ce : int }

(* What [exec] hands on to [exec_generic]. *)
type generic =
  | Call of { dst : int option; callee : callee; args : operand array; arg_tys : Ctype.t list }
  | Pac of { p : Ir.pac; dst : int; src : operand; slot : operand }
  | Pp of pp
  | Fail of exn

(* The binary operators without a pre-checked form of their own: float
   [%] and comparisons, and the logical operators, which read float bits
   as integers. *)
type rare = Fmod | Feq | Fne | Flt | Fle | Fgt | Fge | Logand | Logor

(* The pre-checked forms; every [int] field but [off] and [size] a byte
   offset. Integer and float forms read and write the same 64-bit
   registers, a float as its bits; the bitwise forms serve both. *)
type code =
  | Ld of { dst : int; addr : int }  (* a word *)
  | Ldb of { dst : int; addr : int }  (* a byte *)
  | St of { src : int; addr : int }
  | Stb of { src : int; addr : int }
  | Add of { dst : int; a : int; b : int }
  | Sub of { dst : int; a : int; b : int }
  | Mul of { dst : int; a : int; b : int }
  | Div of { dst : int; a : int; b : int }
  | Mod of { dst : int; a : int; b : int }
  | Eq of { dst : int; a : int; b : int }
  | Ne of { dst : int; a : int; b : int }
  | Lt of { dst : int; a : int; b : int }
  | Le of { dst : int; a : int; b : int }
  | Gt of { dst : int; a : int; b : int }
  | Ge of { dst : int; a : int; b : int }
  | And of { dst : int; a : int; b : int }
  | Or of { dst : int; a : int; b : int }
  | Xor of { dst : int; a : int; b : int }
  | Shl of { dst : int; a : int; b : int }
  | Shr of { dst : int; a : int; b : int }
  | Fadd of { dst : int; a : int; b : int }
  | Fsub of { dst : int; a : int; b : int }
  | Fmul of { dst : int; a : int; b : int }
  | Fdiv of { dst : int; a : int; b : int }
  | Binop of { dst : int; op : rare; a : int; b : int }
  | Neg of { dst : int; src : int }
  | Fneg of { dst : int; src : int }
  | Lognot of { dst : int; src : int }
  | Bitnot of { dst : int; src : int }
  | To_double of { dst : int; src : int }  (* numeric casts *)
  | To_integer of { dst : int; src : int }
  | To_char of { dst : int; src : int }
  | Alloca of { dst : int; size : int }  (* rounded up to 16 bytes *)
  | Gep of { dst : int; base : int; off : int }
  | Gepidx of { dst : int; base : int; size : int; idx : int }
  | Move of { dst : int; src : int }  (* a bitcast, or a cast that keeps the bits *)
  | Generic of generic

let loads_of = function Ld _ | Ldb _ -> 1 | _ -> 0
let stores_of = function St _ | Stb _ -> 1 | _ -> 0

(* [Ret] of a void return reads a constant 0. *)
type term = Ret of operand | Br of int | Condbr of operand * int * int | Unreachable

(* A block runs in segments: a cut follows each call, so a callee always
   starts from exact counters. [segs] holds [seg_width] ints a segment:
   where it stops (one past its last instruction), then its cycles,
   steps, loads and stores, and last how often the run entered it; the
   last segment's totals include the terminator's charge and step. *)
type block = {
  body : code array;
  lines : int array;  (* each instruction's !dbg line, 0 when it has none *)
  cost : int array;  (* each instruction's static charge *)
  segs : int array;
  term : term;
}

let seg_width = 6
let visit_slot = 5  (* the visit count's place in a segment *)

type func = {
  name : string;  (* the [Ir.func]'s own string: sites compare it with [==] *)
  nregs : int;
  frame : bytes;
      (* a fresh register file: [nregs] zeros, the constants, then the
         PA unit's two operand registers at byte offsets [md] and [res] *)
  md : int;  (* a PAC op's runtime modifier *)
  res : int;  (* its result, until [account] has seen it *)
  bad : exn array;
  blocks : block array;
}

(* A run's segment visits, read in place: the machine's own functions and
   resolved views, whose [segs] hold the counts. A function the run never
   entered is [None]. *)
type profile = { funcs : Ir.func array; code : func option array }

type outcome = {
  status : status;
  cycles : int;
  counts : counts;
  output : string;
  call_profile : (string * int) list;
      (* defined-function call counts, descending *)
  extern_profile : (string * int) list;
      (* simulated-libc call counts, descending *)
  sites : site list;
      (* hot-site profile, cycles descending; [] unless profiling *)
  incidents : incident list;
      (* chronological; [] unless flight recording *)
  notes : string list;  (* the intruder's notes, chronological *)
  visits : profile;
}

let detected (o : outcome) =
  match o.status with
  | Trapped (Mem_fault { after_auth_fail = true; _ })
  | Trapped (Bad_indirect_call { after_auth_fail = true; _ })
  | Trapped (Pac_auth_failure _) ->
      true
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Machine state                                                       *)
(* ------------------------------------------------------------------ *)

module I64tbl = Hashtbl.Make (Int64)

type t = {
  m : Ir.modul;
  mem : Memory.t;
  pac : Rsti_pa.Pac.ctx;
  costs : Cost.t;
  funcs : Ir.func array;  (* function i sits at [text_base + 16 i] *)
  resolved : func option array;  (* by function index, filled on first call *)
  defs : (string, int) Hashtbl.t;  (* the module's functions, by name *)
  libc : string array;  (* libc symbol i sits at [libc_base + 16 i] *)
  libc_index : (string, int) Hashtbl.t;  (* [libc]'s names *)
  global_addrs : (string, int64) Hashtbl.t;
  string_addrs : int64 array;
  mutable heap_ptr : int64;
  mutable allocs : (int64 * int) list;
  mutable sp : int;  (* canonical, so an [int] *)
  mutable stack_low : int;  (* the lowest [sp] so far: the stack above is mapped *)
  mutable cycles : int;
  counts : counts;
  mutable notes : string list;  (* reverse *)
  out : Buffer.t;
  mutable step_limit : int;  (* on [counts.instrs] *)
  mutable whole_limit : int;
      (* the [counts.instrs] a segment accounted whole may reach:
         [step_limit] on a plain machine, -1 on a profiled or
         flight-recorded one, which steps each instruction *)
  mutable auth_failed : bool;   (* any auth failure so far *)
  call_counts : int array;  (* by function index *)
  extern_counts : int array;  (* by libc index *)
  mutable attacks : attack list;
  mutable rng : Rsti_util.Splitmix.t;
  mutable ran : bool;
  fpac : bool;
  cfi : bool;
  backend : [ `Pac | `Shadow_mac ];
  (* the shadow-MAC backend's table: slot address -> 64-bit MAC, held by
     the trusted runtime (CCFI stores it in protected memory) *)
  shadow : int64 I64tbl.t;
  (* exact hot-site profiler; it makes the machine step and charge each
     instruction, and nothing of it allocates when off *)
  profiling : bool;
  prof_sites : (string * int, site) Hashtbl.t;
  mutable cur_site : site;
  (* PAC flight recorder; like the profiler, it makes the machine step
     and charge each instruction. When off ([recording] = false), every
     PAC op pays one boolean test and nothing allocates. When on, the
     last [Array.length fr_buf] ops are kept in a preallocated ring. *)
  recording : bool;
  fr_buf : pac_op array;
  mutable fr_next : int;  (* total ops recorded; slot = fr_next mod cap *)
  signers : pac_op I64tbl.t;
      (* signed value -> the sign op that produced it (latest wins), so
         the observed signer survives even after falling out of the ring;
         at most [signers_cap] values *)
  mutable incidents : incident list;  (* reverse *)
  mutable corrupt_at : (int * int) option;
      (* (cycle, instr) of the first intruder store, the corruption
         point detection latency is measured from *)
  mutable cur_line : int;  (* !dbg line of the dispatching instruction *)
}

let signers_cap = 16_384

exception Trap_exn of trap
exception Exit_exn of int64

let builtin_names =
  [
    "malloc"; "calloc"; "free"; "printf"; "puts"; "putchar"; "strlen"; "strcmp";
    "strncmp"; "strcpy"; "strncpy"; "strcat"; "memcpy"; "memset"; "memmove";
    "strstr"; "strchr"; "atoi"; "abs"; "exit"; "rand"; "srand"; "system";
    "mprotect"; "dlopen"; "mmap"; "socket"; "send"; "recv"; "open"; "read";
    "write"; "close"; "getenv"; "snprintf"; "fprintf"; "qsort"; "log"; "strdup";
    "sqrt"; "fabs"; "floor"; "ceil"; "pow"; "exec";
  ]

let index_of names =
  let h = Hashtbl.create (Array.length names) in
  Array.iteri (fun i name -> Hashtbl.replace h name i) names;
  h

(* The libc of every module whose externs are all built-ins: built once
   and never written afterwards, so machines on any domain share it. *)
let builtins = Array.of_list (List.sort_uniq compare builtin_names)
let builtin_index = index_of builtins

(* Ring slots are overwritten before they are ever read, so the filler
   op is never observable. *)
let dummy_op =
  {
    op_kind = Op_strip;
    op_func = "";
    op_line = 0;
    op_key = Rsti_pa.Key.DA;
    op_static_mod = 0L;
    op_modifier = 0L;
    op_src = 0L;
    op_result = 0L;
    op_ok = true;
    op_cycle = 0;
    op_instr = 0;
  }

let create ?(costs = Cost.default) ?(seed = 0xC0FFEEL) ?(pp_table = []) ?(fpac = true)
    ?(cfi = false) ?(backend = `Pac) ?(profile = false) ?(flight = 0) (m : Ir.modul) =
  let mem = Memory.create () in
  let pac = Rsti_pa.Pac.make ~seed () in
  let funcs = Array.of_list m.m_funcs in
  let defs = Hashtbl.create (Array.length funcs) in
  Array.iteri (fun i (f : Ir.func) -> Hashtbl.replace defs f.name i) funcs;
  (* Externs and built-ins live in the simulated libc. *)
  let libc, libc_index =
    if List.for_all (fun (name, _) -> Hashtbl.mem builtin_index name) m.m_externs then
      (builtins, builtin_index)
    else
      let libc =
        Array.of_list (List.sort_uniq compare (builtin_names @ List.map fst m.m_externs))
      in
      (libc, index_of libc)
  in
  (* Globals. *)
  let global_addrs = Hashtbl.create 32 in
  let gp = ref Layout.globals_base in
  List.iter
    (fun (g : Ir.global_def) ->
      let size = max 8 (Ir.sizeof m g.gvar.v_ty) in
      Memory.map mem ~addr:!gp ~size;
      Hashtbl.replace global_addrs g.gvar.Rsti_minic.Tast.v_name !gp;
      gp := Int64.add !gp (Int64.of_int ((size + 7) / 8 * 8)))
    m.m_globals;
  (* Extern data objects (rare) get zeroed storage too. *)
  List.iter
    (fun (name, ty) ->
      match ty with
      | Ctype.Func _ -> ()
      | _ ->
          if not (Hashtbl.mem global_addrs name) then begin
            let size = max 8 (try Ir.sizeof m ty with _ -> 8) in
            Memory.map mem ~addr:!gp ~size;
            Hashtbl.replace global_addrs name !gp;
            gp := Int64.add !gp (Int64.of_int ((size + 7) / 8 * 8))
          end)
    m.m_externs;
  (* Strings in read-only data. *)
  let sp = ref Layout.rodata_base in
  let string_addrs =
    Array.map
      (fun s ->
        let addr = !sp in
        Memory.map mem ~addr ~size:(String.length s + 1);
        Memory.write_cstring mem addr s;
        sp := Int64.add !sp (Int64.of_int ((String.length s + 8) / 8 * 8));
        addr)
      m.m_strings
  in
  (* Execution begins (global init, entry dispatch) before any
     instruction has named a site; those charges land on the _start
     pseudo-site. *)
  let boot = new_site "_start" 0 in
  (* Pointer-to-pointer CE->FE metadata: read-only, as the paper requires. *)
  let pp_base = Int64.add Layout.rodata_base 0x8000L in
  if pp_table <> [] then begin
    Memory.map mem ~addr:pp_base ~size:(256 * 8);
    List.iter
      (fun (ce, fe_mod) ->
        Memory.write_u64_raw mem (Int64.add pp_base (Int64.of_int (ce * 8))) fe_mod)
      pp_table;
    Memory.protect mem ~addr:pp_base ~size:(256 * 8)
  end;
  {
    m;
    mem;
    pac;
    costs;
    funcs;
    resolved = Array.make (Array.length funcs) None;
    defs;
    libc;
    libc_index;
    global_addrs;
    string_addrs;
    heap_ptr = Layout.heap_base;
    allocs = [];
    sp = Int64.to_int Layout.stack_top;
    stack_low = Int64.to_int Layout.stack_top;
    cycles = 0;
    counts =
      { instrs = 0; loads = 0; stores = 0; pac_signs = 0; pac_auths = 0;
        pac_strips = 0; pp_calls = 0 };
    notes = [];
    out = Buffer.create 256;
    step_limit = 200_000_000;
    whole_limit = -1;
    auth_failed = false;
    call_counts = Array.make (Array.length funcs) 0;
    extern_counts = Array.make (Array.length libc) 0;
    attacks = [];
    rng = Rsti_util.Splitmix.create seed;
    ran = false;
    fpac;
    cfi;
    backend;
    shadow = I64tbl.create 256;
    profiling = profile;
    prof_sites =
      (let h = Hashtbl.create 64 in
       if profile then Hashtbl.replace h ("_start", 0) boot;
       h);
    cur_site = boot;
    recording = flight > 0;
    fr_buf = (if flight > 0 then Array.make flight dummy_op else [||]);
    fr_next = 0;
    signers = I64tbl.create (if flight > 0 then 64 else 1);
    incidents = [];
    corrupt_at = None;
    cur_line = 0;
  }

let pp_meta_base = Int64.add Layout.rodata_base 0x8000L
let stack_limit = Int64.to_int Layout.stack_limit

let global_addr t name =
  match Hashtbl.find_opt t.global_addrs name with
  | Some a -> a
  | None -> invalid_arg ("Interp.global_addr: unknown global " ^ name)

(* What a name calls: a defined function shadows a libc symbol. *)
let callee_of t name =
  match Hashtbl.find t.defs name with
  | i -> Defined i
  | exception Not_found -> (
      match Hashtbl.find t.libc_index name with
      | i -> Libc i
      | exception Not_found -> Missing name)

let func_addr t name =
  match callee_of t name with
  | Defined i -> Layout.code_addr_of_index Layout.text_base i
  | Libc i -> Layout.code_addr_of_index Layout.libc_base i
  | _ -> invalid_arg ("Interp.func_addr: unknown function " ^ name)

(* The function or libc symbol whose code starts at [a], if any. *)
let code_at t a =
  let slot base n =
    let d = Int64.sub a base in
    if
      Int64.compare d 0L >= 0
      && Int64.compare d (Int64.mul (Int64.of_int n) Layout.func_slot_size) < 0
      && Int64.equal (Int64.rem d Layout.func_slot_size) 0L
    then Int64.to_int (Int64.div d Layout.func_slot_size)
    else -1
  in
  let i = slot Layout.text_base (Array.length t.funcs) in
  if i >= 0 then Some (Defined i)
  else
    let i = slot Layout.libc_base (Array.length t.libc) in
    (* a libc name a defined function shadows has no code *)
    if i >= 0 && not (Hashtbl.mem t.defs t.libc.(i)) then Some (Libc i) else None

(* ------------------------------------------------------------------ *)
(* Resolution                                                          *)
(* ------------------------------------------------------------------ *)

(* Register [r] of an operand that did not take a pre-checked form; a
   negative operand raises what resolution kept for it. *)
let get f regs r =
  if r < 0 then raise f.bad.(lnot r);
  get_at regs (r lsl 3)
[@@inline]

let set regs r v = set_at regs (r lsl 3) v [@@inline]

let truth c = Int64.of_int (Bool.to_int c) [@@inline]

(* Each instruction's static charge. A call's is 0: the machine charges
   [call] or [extern_call] once it knows the callee. *)
let cost_of t (ins : Ir.instr) =
  let c = t.costs in
  match ins.i with
  | Ir.Alloca _ | Ir.Bitcast _ | Ir.Binop _ | Ir.Neg _ | Ir.Lognot _ | Ir.Bitnot _
  | Ir.Cast_num _ ->
      c.alu
  | Ir.Load _ -> c.load
  | Ir.Store _ -> c.store
  | Ir.Gep _ | Ir.Gepidx _ -> c.gep
  | Ir.Call _ -> 0
  | Ir.Pp _ -> c.pp
  | Ir.Pac p -> (
      match (t.backend, p.p_kind) with
      | _, Ir.Kstrip -> c.strip
      | `Pac, (Ir.Ksign | Ir.Kauth) -> c.pac + c.pac_spill
      | `Pac, Ir.Kresign -> 2 * (c.pac + c.pac_spill)
      (* the shadow-MAC backend pays a shadow-table access beside each MAC;
         a cast carries no per-slot state there *)
      | `Shadow_mac, Ir.Ksign -> c.pac + c.load + c.store
      | `Shadow_mac, Ir.Kauth -> c.pac + c.load
      | `Shadow_mac, Ir.Kresign -> 2 * c.pac)

(* Never raises: whatever executing a piece of [fn] would raise is kept
   in [bad] or in a [Fail] instruction. *)
let resolve t i =
  let fn = t.funcs.(i) in
  let nregs = max 0 fn.nregs in
  (* one register per constant operand: resolution runs on every
     machine's first call of each function, so it does not look for
     repeats *)
  let consts = ref [] and nconsts = ref 0 in
  let const v =
    consts := v :: !consts;
    incr nconsts;
    nregs + !nconsts - 1
  in
  let bad = ref [] and nbad = ref 0 in
  let fail exn =
    bad := exn :: !bad;
    incr nbad;
    lnot (!nbad - 1)
  in
  let in_file r = r >= 0 && r < nregs in
  let dst r = if in_file r then r else -1 in
  (* [v]'s register; raises what reading [v] would raise *)
  let reg (v : Ir.value) =
    match v with
    | Ir.Imm n -> const n
    | Ir.Fimm x -> const (Int64.bits_of_float x)
    | Ir.Reg r -> if in_file r then r else invalid_arg "index out of bounds"
    | Ir.Null -> const 0L
    | Ir.Global g -> const (global_addr t g)
    | Ir.Funcaddr f -> const (func_addr t f)
    | Ir.Str s -> const t.string_addrs.(s)
  in
  let operand v = match reg v with r -> r | exception e -> fail e in
  (* char is one byte, everything else a 64-bit word *)
  let byte ty = match Ctype.strip_const ty with Ctype.Char -> true | _ -> false in
  (* The pre-checked forms: an operand that does not resolve raises here,
     and the instruction becomes [Fail] of it. Each reads its operands in
     the order the instruction executes them: a binary operator [a]
     before [b], a store its value before its address, a gepidx its index
     before its base. *)
  let code (ins : Ir.instr) =
    match ins.i with
    | Ir.Alloca { dst = d; ty; _ } ->
        let size = max 8 (Ir.sizeof t.m ty) in
        Alloca { dst = dst d lsl 3; size = (size + 15) / 16 * 16 }
    | Ir.Load { dst = d; addr; ty; _ } ->
        let d = dst d lsl 3 and addr = reg addr lsl 3 in
        if byte ty then Ldb { dst = d; addr } else Ld { dst = d; addr }
    | Ir.Store { src; addr; ty; _ } ->
        let src = reg src lsl 3 in
        let addr = reg addr lsl 3 in
        if byte ty then Stb { src; addr } else St { src; addr }
    | Ir.Gep { dst = d; base; sname; field } ->
        let off, _ = Ir.field_offset t.m sname field in
        Gep { dst = dst d lsl 3; base = reg base lsl 3; off }
    | Ir.Gepidx { dst = d; base; elem; idx } ->
        let size = Ir.sizeof t.m elem in
        let idx = reg idx lsl 3 in
        let base = reg base lsl 3 in
        Gepidx { dst = dst d lsl 3; base; size; idx }
    | Ir.Bitcast { dst = d; src; _ } -> Move { dst = dst d lsl 3; src = reg src lsl 3 }
    | Ir.Binop { dst = d; op; fl; a; b } -> (
        let a = reg a lsl 3 in
        let b = reg b lsl 3 in
        let dst = dst d lsl 3 in
        let rare op = Binop { dst; op; a; b } in
        match (op, fl) with
        | Ast.Add, Ir.Iop -> Add { dst; a; b }
        | Ast.Sub, Ir.Iop -> Sub { dst; a; b }
        | Ast.Mul, Ir.Iop -> Mul { dst; a; b }
        | Ast.Div, Ir.Iop -> Div { dst; a; b }
        | Ast.Mod, Ir.Iop -> Mod { dst; a; b }
        | Ast.Eq, Ir.Iop -> Eq { dst; a; b }
        | Ast.Ne, Ir.Iop -> Ne { dst; a; b }
        | Ast.Lt, Ir.Iop -> Lt { dst; a; b }
        | Ast.Le, Ir.Iop -> Le { dst; a; b }
        | Ast.Gt, Ir.Iop -> Gt { dst; a; b }
        | Ast.Ge, Ir.Iop -> Ge { dst; a; b }
        | Ast.Add, Ir.Fop -> Fadd { dst; a; b }
        | Ast.Sub, Ir.Fop -> Fsub { dst; a; b }
        | Ast.Mul, Ir.Fop -> Fmul { dst; a; b }
        | Ast.Div, Ir.Fop -> Fdiv { dst; a; b }
        | Ast.Mod, Ir.Fop -> rare Fmod
        | Ast.Eq, Ir.Fop -> rare Feq
        | Ast.Ne, Ir.Fop -> rare Fne
        | Ast.Lt, Ir.Fop -> rare Flt
        | Ast.Le, Ir.Fop -> rare Fle
        | Ast.Gt, Ir.Fop -> rare Fgt
        | Ast.Ge, Ir.Fop -> rare Fge
        | Ast.Bitand, _ -> And { dst; a; b }
        | Ast.Bitor, _ -> Or { dst; a; b }
        | Ast.Bitxor, _ -> Xor { dst; a; b }
        | Ast.Shl, _ -> Shl { dst; a; b }
        | Ast.Shr, _ -> Shr { dst; a; b }
        | Ast.Logand, _ -> rare Logand
        | Ast.Logor, _ -> rare Logor)
    | Ir.Neg { dst = d; fl; src } -> (
        let src = reg src lsl 3 and dst = dst d lsl 3 in
        match fl with Ir.Iop -> Neg { dst; src } | Ir.Fop -> Fneg { dst; src })
    | Ir.Lognot { dst = d; src } -> Lognot { dst = dst d lsl 3; src = reg src lsl 3 }
    | Ir.Bitnot { dst = d; src } -> Bitnot { dst = dst d lsl 3; src = reg src lsl 3 }
    | Ir.Cast_num { dst = d; src; from_ty; to_ty } -> (
        let src = reg src lsl 3 and dst = dst d lsl 3 in
        match (Ctype.strip_all_quals from_ty, Ctype.strip_all_quals to_ty) with
        | (Ctype.Char | Ctype.Int | Ctype.Long), Ctype.Double -> To_double { dst; src }
        | Ctype.Double, (Ctype.Char | Ctype.Int | Ctype.Long) -> To_integer { dst; src }
        | _, Ctype.Char -> To_char { dst; src }
        | _ -> Move { dst; src })
    | Ir.Call { dst = d; callee; args; arg_tys; _ } ->
        let callee =
          match callee with
          | Ir.Direct name -> callee_of t name
          | Ir.Indirect c -> Via (operand c)
        in
        Generic
          (Call
             { dst = Option.map dst d; callee; args = Array.of_list (List.map operand args);
               arg_tys })
    | Ir.Pac p ->
        Generic
          (Pac { p; dst = dst p.p_dst; src = operand p.p_src; slot = operand p.p_slot_addr })
    | Ir.Pp (Ir.Pp_add _) -> Generic (Pp Pp_add)
    | Ir.Pp (Ir.Pp_sign { dst = d; src; ce; slot_addr }) ->
        Generic (Pp (Pp_sign { dst = dst d; src = operand src; ce; slot = operand slot_addr }))
    | Ir.Pp (Ir.Pp_auth { dst = d; src; slot_addr }) ->
        Generic (Pp (Pp_auth { dst = dst d; src = operand src; slot = operand slot_addr }))
    | Ir.Pp (Ir.Pp_add_tbi { dst = d; src; ce }) ->
        Generic (Pp (Pp_add_tbi { dst = dst d; src = operand src; ce }))
  in
  let code ins = match code ins with c -> c | exception exn -> Generic (Fail exn) in
  let line (ins : Ir.instr) =
    match ins.dbg with Some d -> d.Rsti_ir.Dinfo.dl_line | None -> 0
  in
  let block (b : Ir.block) =
    let instrs = Array.of_list b.instrs in
    let body = Array.map code instrs and cost = Array.map (fun ins -> cost_of t ins) instrs in
    let term =
      match b.term with
      | Ir.Ret v -> Ret (operand (Option.value v ~default:(Ir.Imm 0L)))
      | Ir.Br l -> Br l
      | Ir.Condbr (c, l1, l2) -> Condbr (operand c, l1, l2)
      | Ir.Unreachable -> Unreachable
    in
    (* a segment ends after each call, and the last one at the terminator *)
    let calls =
      Array.fold_left (fun n c -> match c with Generic (Call _) -> n + 1 | _ -> n) 0 body
    in
    let segs = Array.make (seg_width * (calls + 1)) 0 in
    let k = ref 0 in
    for j = 0 to Array.length body - 1 do
      let c = body.(j) in
      segs.(!k + 1) <- segs.(!k + 1) + cost.(j);
      segs.(!k + 2) <- segs.(!k + 2) + 1;
      segs.(!k + 3) <- segs.(!k + 3) + loads_of c;
      segs.(!k + 4) <- segs.(!k + 4) + stores_of c;
      match c with
      | Generic (Call _) ->
          segs.(!k) <- j + 1;
          k := !k + seg_width
      | _ -> ()
    done;
    segs.(!k) <- Array.length body;
    (match term with
    | Ret _ -> segs.(!k + 1) <- segs.(!k + 1) + t.costs.branch
    | Br _ | Condbr _ ->
        segs.(!k + 1) <- segs.(!k + 1) + t.costs.branch;
        segs.(!k + 2) <- segs.(!k + 2) + 1
    | Unreachable -> ());
    { body; lines = Array.map line instrs; cost; segs; term }
  in
  let blocks = Array.map block fn.blocks in
  let md = 8 * (nregs + !nconsts) in
  let frame = Bytes.make (md + 16) '\000' in
  List.iteri (fun k v -> set frame (nregs + !nconsts - 1 - k) v) !consts;
  { name = fn.name; nregs; frame; md; res = md + 8; bad = Array.of_list (List.rev !bad);
    blocks }

let resolved t i =
  match t.resolved.(i) with
  | Some f -> f
  | None ->
      let f = resolve t i in
      t.resolved.(i) <- Some f;
      f

(* Function [g]'s register file for a call: its constants, and the
   argument values in its first registers. Every argument is read, in
   order; one past [g]'s registers is dropped. *)
let frame_of f regs (g : func) (args : operand array) =
  let frame = Bytes.copy g.frame in
  for j = 0 to Array.length args - 1 do
    let v = get f regs args.(j) in
    if j < g.nregs then set frame j v
  done;
  frame

(* ------------------------------------------------------------------ *)
(* Attacker hooks                                                      *)
(* ------------------------------------------------------------------ *)

(* Every scenario corruption goes through the intruder's store hooks, so
   tagging the first one here marks the corruption point detection
   latency is measured from — no per-scenario bookkeeping needed. *)
let tag_corruption t =
  if t.corrupt_at = None then
    t.corrupt_at <- Some (t.cycles, t.counts.instrs)

let intruder_of t =
  {
    read_word = (fun a -> Memory.read_u64 t.mem a);
    write_word =
      (fun a v ->
        tag_corruption t;
        Memory.write_u64_raw t.mem a v);
    read_string = (fun a -> Memory.read_cstring t.mem a);
    write_string =
      (fun a s ->
        tag_corruption t;
        Memory.write_cstring t.mem a s);
    global_addr = (fun n -> global_addr t n);
    func_addr = (fun n -> func_addr t n);
    heap_allocs = (fun () -> t.allocs);
    note = (fun s -> t.notes <- s :: t.notes);
  }

(* Called only when attacks are armed. *)
let fire_attacks t trig =
  List.iter
    (fun atk -> if atk.trigger = trig then atk.action (intruder_of t))
    t.attacks

(* ------------------------------------------------------------------ *)
(* Value and memory helpers                                            *)
(* ------------------------------------------------------------------ *)

let charge t c =
  t.cycles <- t.cycles + c;
  if t.profiling then t.cur_site.s_cycles <- t.cur_site.s_cycles + c
[@@inline]

let step t =
  let c = t.counts in
  c.instrs <- c.instrs + 1;
  if t.profiling then t.cur_site.s_instrs <- t.cur_site.s_instrs + 1;
  if c.instrs > t.step_limit then raise (Trap_exn Step_limit_exceeded)
[@@inline]

(* Site switching, called (under [profiling] only) before each
   instruction executes: terminator and call-dispatch charges attribute
   to the site of the last instruction that ran, which keeps the
   partition exact without threading a site through every helper. *)
let set_site t func line =
  let cur = t.cur_site in
  if not (cur.s_func == func && cur.s_line = line) then
    let key = (func, line) in
    match Hashtbl.find_opt t.prof_sites key with
    | Some s -> t.cur_site <- s
    | None ->
        let s = new_site func line in
        Hashtbl.replace t.prof_sites key s;
        t.cur_site <- s

let prof_pp t =
  if t.profiling then t.cur_site.s_pp_calls <- t.cur_site.s_pp_calls + 1

(* ------------------------------------------------------------------ *)
(* PAC flight recorder                                                 *)
(* ------------------------------------------------------------------ *)

(* The modifier constant an instruction carries, before the runtime
   slot-address XOR: the static Equiv class identity. *)
let static_modifier (m : Ir.modifier) =
  match m with Ir.Mconst c | Ir.Mloc c -> c

let op_kind_to_string = function
  | Op_sign -> "sign"
  | Op_auth -> "auth"
  | Op_resign -> "resign"
  | Op_strip -> "strip"
  | Op_pp_sign -> "pp_sign"
  | Op_pp_auth -> "pp_auth"

(* The caller guards on [t.recording]; this allocates one op record. *)
let record_op t ~kind ~func ~key ~static_mod ~modifier ~src ~result ~ok =
  let op =
    {
      op_kind = kind;
      op_func = func;
      op_line = t.cur_line;
      op_key = key;
      op_static_mod = static_mod;
      op_modifier = modifier;
      op_src = src;
      op_result = result;
      op_ok = ok;
      op_cycle = t.cycles;
      op_instr = t.counts.instrs;
    }
  in
  t.fr_buf.(t.fr_next mod Array.length t.fr_buf) <- op;
  t.fr_next <- t.fr_next + 1;
  match kind with
  | Op_sign | Op_pp_sign | Op_resign ->
      if ok && (I64tbl.length t.signers < signers_cap || I64tbl.mem t.signers result)
      then I64tbl.replace t.signers result op
  | Op_auth | Op_pp_auth | Op_strip -> ()

let flight_window t =
  let cap = Array.length t.fr_buf in
  let n = min t.fr_next cap in
  List.init n (fun i -> t.fr_buf.((t.fr_next - n + i) mod cap))

(* Build and store the incident for a failing auth. The failing op has
   already been pushed into the ring, so the window ends with it. *)
let record_incident t ~func ~key ~static_mod ~modifier ~ptr =
  let corrupt = t.corrupt_at in
  let latency f =
    Option.map (fun (cy, ins) -> f (t.cycles, t.counts.instrs) (cy, ins)) corrupt
  in
  let inc =
    {
      inc_func = func;
      inc_line = t.cur_line;
      inc_key = key;
      inc_static_mod = static_mod;
      inc_modifier = modifier;
      inc_ptr = ptr;
      inc_signer = I64tbl.find_opt t.signers ptr;
      inc_window = flight_window t;
      inc_cycle = t.cycles;
      inc_instr = t.counts.instrs;
      inc_corrupt = corrupt;
      inc_latency_cycles = latency (fun (now, _) (cy, _) -> now - cy);
      inc_latency_instrs = latency (fun (_, now) (_, ins) -> now - ins);
    }
  in
  t.incidents <- inc :: t.incidents

(* Every PAC-unit operation, on either backend or in the pp runtime, is
   accounted here and nowhere else: its counters and the profiler's
   per-site copy, its flight-recorder entry and, when the check failed,
   the incident and the FPAC trap. Its cycles are the instruction's
   static charge ([cost_of]), which the backends set apart. With the profiler
   and the recorder off, each costs one branch and nothing allocates. *)
let account t kind ~func ~key ~static_mod ~modifier ~src ~result ~ok =
  let signs, auths, strips, charges =
    match kind with
    | Op_sign -> (1, 0, 0, 1)
    | Op_auth -> (0, 1, 0, 1)
    | Op_resign -> (1, 1, 0, 2)
    | Op_strip -> (0, 0, 1, 0)
    (* the pp runtime's sign/auth price is [pp], counted in [pp_calls] *)
    | Op_pp_sign -> (1, 0, 0, 0)
    | Op_pp_auth -> (0, 1, 0, 0)
  in
  let c = t.counts in
  c.pac_signs <- c.pac_signs + signs;
  c.pac_auths <- c.pac_auths + auths;
  c.pac_strips <- c.pac_strips + strips;
  if t.profiling then begin
    let s = t.cur_site in
    s.s_strips <- s.s_strips + strips;
    s.s_pac_charges <- s.s_pac_charges + charges
  end;
  if t.recording then
    record_op t ~kind ~func ~key ~static_mod ~modifier ~src ~result ~ok;
  if not ok then begin
    t.auth_failed <- true;
    if t.recording then
      record_incident t ~func ~key ~static_mod ~modifier ~ptr:src;
    (* ARMv8.6 FPAC (implemented by the M1): a failing aut* traps
       synchronously instead of leaving a corrupted pointer behind.
       Without it, a later xpac strip could launder the corruption. *)
    if t.fpac then
      raise (Trap_exn (Pac_auth_failure { func; modifier; ptr = src }))
  end
[@@inline]

let mem_fault t func fault =
  Trap_exn
    (Mem_fault
       { fault = Memory.fault_to_string fault; func; after_auth_fail = t.auth_failed })

(* Instruction [i] of [b]'s segment [k], which starts at [start], raised
   after the segment was accounted whole: take back the totals of the
   instructions after [i] and, in the last segment, the terminator's, so
   the counters stop where stepping and charging each instruction would
   have stopped them. *)
let take_back t b k start i =
  let c = t.counts and segs = b.segs in
  let cycles = ref segs.(k + 1) and loads = ref segs.(k + 3) and stores = ref segs.(k + 4) in
  for j = start to i do
    cycles := !cycles - b.cost.(j);
    loads := !loads - loads_of b.body.(j);
    stores := !stores - stores_of b.body.(j)
  done;
  t.cycles <- t.cycles - !cycles;
  c.instrs <- c.instrs - (segs.(k + 2) - (i + 1 - start));
  c.loads <- c.loads - !loads;
  c.stores <- c.stores - !stores

(* A PAC op's runtime modifier, into its register [f.md]: the constant,
   or the constant XOR the slot address. Each branch stores its own
   value, so nothing is boxed. *)
let set_modifier f regs (m : Ir.modifier) slot =
  match m with
  | Ir.Mconst c -> Bytes.set_int64_ne regs f.md c
  | Ir.Mloc c -> Bytes.set_int64_ne regs f.md (Int64.logxor c (get f regs slot))
[@@inline]

(* The pointer-to-pointer FE modifier of CE tag [ce], read from the
   read-only metadata into [f.md] through the load/store unit ([f.res]
   holds the address meanwhile). *)
let load_fe t f regs ce =
  Bytes.set_int64_ne regs f.res (Int64.add pp_meta_base (Int64.of_int (ce * 8)));
  try Memory.load_word t.mem regs ~dst:f.md ~addr:f.res
  with Memory.Fault fault -> raise (mem_fault t f.name fault)

let malloc t size =
  if size < 0 || size > 0x1000000 then 0L (* 16 MiB cap: huge requests fail *)
  else begin
  let size = max 1 size in
  let addr = t.heap_ptr in
  Memory.map t.mem ~addr ~size;
  t.heap_ptr <- Int64.add t.heap_ptr (Int64.of_int ((size + 15) / 16 * 16));
  t.allocs <- (addr, size) :: t.allocs;
  addr
  end

(* C reads a negative length as a huge size_t: such a call touches
   memory until an access leaves the mapping, and that fault ends the
   run. *)
let length v =
  let n = Int64.to_int v in
  if n < 0 then max_int else n

(* [memmove]: a page-sized chunk at a time, each read whole before it is
   written, so a huge length faults where the mapping ends instead of
   asking the host for the whole buffer. When the destination overlaps
   the source from above, the chunks run from the end. *)
let copy t ~dst ~src n =
  let d = Int64.sub dst src in
  let backward = Int64.compare d 0L > 0 && Int64.compare d (Int64.of_int n) < 0 in
  let copied = ref 0 in
  while !copied < n do
    let len = min 4096 (n - !copied) in
    let off = Int64.of_int (if backward then n - !copied - len else !copied) in
    Memory.write_bytes t.mem (Int64.add dst off)
      (Memory.read_bytes t.mem (Int64.add src off) len);
    copied := !copied + len
  done

(* ------------------------------------------------------------------ *)
(* The pre-checked forms                                               *)
(* ------------------------------------------------------------------ *)

(* The one place the pre-checked forms' semantics live. It is inlined
   into both instruction loops, [exec_block]'s and [exec_each], and hands
   every [Generic] instruction to [generic], which is [exec_generic]: so
   a pre-checked instruction, a load or store that hits the page cache
   included, runs with no call. The caller has stepped and charged the
   instruction and counted its load or store. Each case stores its own
   result: an [int64] yielded by a [match] or returned from a call would
   be boxed. *)
let exec t f regs (c : code) generic =
  match c with
  | Ld { dst; addr } -> Memory.load_word t.mem regs ~dst ~addr
  | Ldb { dst; addr } -> Memory.load_byte t.mem regs ~dst ~addr
  | St { src; addr } -> Memory.store_word t.mem regs ~src ~addr
  | Stb { src; addr } -> Memory.store_byte t.mem regs ~src ~addr
  | Add { dst; a; b } -> set_at regs dst (Int64.add (get_at regs a) (get_at regs b))
  | Sub { dst; a; b } -> set_at regs dst (Int64.sub (get_at regs a) (get_at regs b))
  | Mul { dst; a; b } -> set_at regs dst (Int64.mul (get_at regs a) (get_at regs b))
  | Div { dst; a; b } ->
      let y = get_at regs b in
      if y = 0L then raise (Trap_exn (Div_by_zero f.name));
      set_at regs dst (Int64.div (get_at regs a) y)
  | Mod { dst; a; b } ->
      let y = get_at regs b in
      if y = 0L then raise (Trap_exn (Div_by_zero f.name));
      set_at regs dst (Int64.rem (get_at regs a) y)
  | Eq { dst; a; b } -> set_at regs dst (truth (get_at regs a = get_at regs b))
  | Ne { dst; a; b } -> set_at regs dst (truth (get_at regs a <> get_at regs b))
  | Lt { dst; a; b } -> set_at regs dst (truth (get_at regs a < get_at regs b))
  | Le { dst; a; b } -> set_at regs dst (truth (get_at regs a <= get_at regs b))
  | Gt { dst; a; b } -> set_at regs dst (truth (get_at regs a > get_at regs b))
  | Ge { dst; a; b } -> set_at regs dst (truth (get_at regs a >= get_at regs b))
  | And { dst; a; b } -> set_at regs dst (Int64.logand (get_at regs a) (get_at regs b))
  | Or { dst; a; b } -> set_at regs dst (Int64.logor (get_at regs a) (get_at regs b))
  | Xor { dst; a; b } -> set_at regs dst (Int64.logxor (get_at regs a) (get_at regs b))
  | Shl { dst; a; b } ->
      set_at regs dst
        (Int64.shift_left (get_at regs a) (Int64.to_int (get_at regs b) land 63))
  | Shr { dst; a; b } ->
      set_at regs dst
        (Int64.shift_right (get_at regs a) (Int64.to_int (get_at regs b) land 63))
  | Fadd { dst; a; b } -> set_at regs dst (Int64.bits_of_float (get_f regs a +. get_f regs b))
  | Fsub { dst; a; b } -> set_at regs dst (Int64.bits_of_float (get_f regs a -. get_f regs b))
  | Fmul { dst; a; b } -> set_at regs dst (Int64.bits_of_float (get_f regs a *. get_f regs b))
  | Fdiv { dst; a; b } -> set_at regs dst (Int64.bits_of_float (get_f regs a /. get_f regs b))
  | Binop { dst; op; a; b } -> (
      let x = get_at regs a and y = get_at regs b in
      let fx = Int64.float_of_bits x and fy = Int64.float_of_bits y in
      match op with
      | Fmod -> set_at regs dst (Int64.bits_of_float (Float.rem fx fy))
      | Feq -> set_at regs dst (truth (fx = fy))
      | Fne -> set_at regs dst (truth (fx <> fy))
      | Flt -> set_at regs dst (truth (fx < fy))
      | Fle -> set_at regs dst (truth (fx <= fy))
      | Fgt -> set_at regs dst (truth (fx > fy))
      | Fge -> set_at regs dst (truth (fx >= fy))
      | Logand -> set_at regs dst (truth (x <> 0L && y <> 0L))
      | Logor -> set_at regs dst (truth (x <> 0L || y <> 0L)))
  | Neg { dst; src } -> set_at regs dst (Int64.neg (get_at regs src))
  | Fneg { dst; src } -> set_at regs dst (Int64.bits_of_float (-.get_f regs src))
  | Lognot { dst; src } -> set_at regs dst (truth (get_at regs src = 0L))
  | Bitnot { dst; src } -> set_at regs dst (Int64.lognot (get_at regs src))
  | To_double { dst; src } ->
      set_at regs dst (Int64.bits_of_float (Int64.to_float (get_at regs src)))
  | To_integer { dst; src } -> set_at regs dst (Int64.of_float (get_f regs src))
  | To_char { dst; src } -> set_at regs dst (Int64.logand (get_at regs src) 0xFFL)
  | Alloca { dst; size } ->
      t.sp <- t.sp - size;
      if t.sp < stack_limit then raise (Trap_exn Stack_overflow);
      (* [sp] only falls by an [Alloca], so every byte from [stack_low]
         up has been allocated once and is mapped. *)
      if t.sp < t.stack_low then begin
        Memory.map t.mem ~addr:(Int64.of_int t.sp) ~size:(t.stack_low - t.sp);
        t.stack_low <- t.sp
      end;
      set_at regs dst (Int64.of_int t.sp)
  | Gep { dst; base; off } ->
      set_at regs dst (Int64.add (get_at regs base) (Int64.of_int off))
  | Gepidx { dst; base; size; idx } ->
      set_at regs dst
        (Int64.add (get_at regs base) (Int64.mul (Int64.of_int size) (get_at regs idx)))
  | Move { dst; src } -> set_at regs dst (get_at regs src)
  | Generic g -> generic t f regs g
[@@inline]

(* ------------------------------------------------------------------ *)
(* printf                                                              *)
(* ------------------------------------------------------------------ *)

(* Conversions take [args] from index [first] on. *)
let format_printf t fmt (args : int64 array) first =
  let buf = Buffer.create (String.length fmt + 16) in
  let next_arg = ref first in
  let next () =
    if !next_arg >= Array.length args then 0L
    else begin
      incr next_arg;
      args.(!next_arg - 1)
    end
  in
  let n = String.length fmt in
  let i = ref 0 in
  while !i < n do
    let c = fmt.[!i] in
    if c = '%' && !i + 1 < n then begin
      let start = !i in
      incr i;
      (* skip width/flags *)
      while !i < n && (match fmt.[!i] with '0' .. '9' | '-' | '.' | 'l' -> true | _ -> false) do
        incr i
      done;
      if !i = n then
        (* a conversion cut off by the end of the string prints as text *)
        Buffer.add_string buf (String.sub fmt start (n - start))
      else begin
        match fmt.[!i] with
        | 'd' | 'i' | 'u' -> Buffer.add_string buf (Int64.to_string (next ()))
        | 'x' -> Buffer.add_string buf (Printf.sprintf "%Lx" (next ()))
        | 'p' -> Buffer.add_string buf (Printf.sprintf "0x%Lx" (next ()))
        | 'c' -> Buffer.add_char buf (Char.chr (Int64.to_int (Int64.logand (next ()) 0xFFL))
                                      )
        | 's' -> Buffer.add_string buf (Memory.read_cstring t.mem (next ()))
        | 'f' | 'g' ->
            Buffer.add_string buf (Printf.sprintf "%g" (Int64.float_of_bits (next ())))
        | '%' -> Buffer.add_char buf '%'
        | c -> Buffer.add_char buf c
      end;
      incr i
    end
    else begin
      Buffer.add_char buf c;
      incr i
    end
  done;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Builtins (the simulated libc)                                       *)
(* ------------------------------------------------------------------ *)

let rec run_builtin t i (args : int64 array) : int64 =
  let name = t.libc.(i) in
  let n = t.extern_counts.(i) + 1 in
  t.extern_counts.(i) <- n;
  charge t t.costs.extern_call;
  let result =
    try run_builtin_body t name args
    with Memory.Fault fault -> raise (mem_fault t name fault)
  in
  (* Hooks fire after the call completes, so "on the nth malloc" sees the
     allocation it corrupts. *)
  (match t.attacks with [] -> () | _ -> fire_attacks t (On_extern (name, n)));
  result

and run_builtin_body t name (args : int64 array) : int64 =
  let arg i = if i < Array.length args then args.(i) else 0L in
  let sarg i = Memory.read_cstring t.mem (arg i) in
  match name with
  | "malloc" -> malloc t (Int64.to_int (arg 0))
  | "calloc" ->
      (* NULL when a count is negative or the product overflows *)
      let n = arg 0 and size = arg 1 in
      if
        Int64.compare n 0L < 0
        || Int64.compare size 0L < 0
        || (size <> 0L && Int64.compare n (Int64.div Int64.max_int size) > 0)
      then 0L
      else malloc t (Int64.to_int (Int64.mul n size))
  | "mmap" -> malloc t (Int64.to_int (arg 1))
  | "free" -> 0L
  | "printf" | "fprintf" ->
      let off = if name = "fprintf" then 1 else 0 in
      let s = format_printf t (sarg off) args (off + 1) in
      Buffer.add_string t.out s;
      Int64.of_int (String.length s)
  | "snprintf" ->
      let s = format_printf t (sarg 2) args 3 in
      let cap = Int64.to_int (arg 1) in
      let s' = if String.length s >= cap && cap > 0 then String.sub s 0 (cap - 1) else s in
      Memory.write_cstring t.mem (arg 0) s';
      Int64.of_int (String.length s)
  | "puts" ->
      Buffer.add_string t.out (sarg 0 ^ "\n");
      0L
  | "putchar" ->
      Buffer.add_char t.out (Char.chr (Int64.to_int (Int64.logand (arg 0) 0xFFL)));
      arg 0
  | "strlen" -> Int64.of_int (String.length (sarg 0))
  | "strcmp" -> Int64.of_int (compare (sarg 0) (sarg 1))
  | "strncmp" ->
      (* a negative length is a huge size_t: the whole strings compare *)
      let cap s n = if n >= 0 && String.length s > n then String.sub s 0 n else s in
      let n = Int64.to_int (arg 2) in
      Int64.of_int (compare (cap (sarg 0) n) (cap (sarg 1) n))
  | "strcpy" ->
      (* Deliberately unsafe, like the real thing: this is the classic
         buffer-overflow vector the attack scenarios exploit. *)
      Memory.write_cstring t.mem (arg 0) (sarg 1);
      arg 0
  | "strncpy" ->
      (* exactly n bytes: the source up to its NUL, then NUL padding *)
      let s = sarg 1 and n = length (arg 2) in
      for i = 0 to n - 1 do
        Memory.write_u8 t.mem
          (Int64.add (arg 0) (Int64.of_int i))
          (if i < String.length s then Char.code s.[i] else 0)
      done;
      arg 0
  | "strcat" ->
      Memory.write_cstring t.mem
        (Int64.add (arg 0) (Int64.of_int (String.length (sarg 0))))
        (sarg 1);
      arg 0
  | "memcpy" | "memmove" ->
      copy t ~dst:(arg 0) ~src:(arg 1) (length (arg 2));
      arg 0
  | "memset" ->
      let v = Int64.to_int (Int64.logand (arg 1) 0xFFL) in
      for i = 0 to length (arg 2) - 1 do
        Memory.write_u8 t.mem (Int64.add (arg 0) (Int64.of_int i)) v
      done;
      arg 0
  | "strstr" -> (
      let hay = sarg 0 and needle = sarg 1 in
      if needle = "" then arg 0
      else
        let hl = String.length hay and nl = String.length needle in
        let rec find i =
          if i + nl > hl then 0L
          else if String.sub hay i nl = needle then Int64.add (arg 0) (Int64.of_int i)
          else find (i + 1)
        in
        find 0)
  | "strchr" -> (
      let s = sarg 0 and c = Char.chr (Int64.to_int (Int64.logand (arg 1) 0xFFL)) in
      match String.index_opt s c with
      | Some i -> Int64.add (arg 0) (Int64.of_int i)
      | None -> 0L)
  | "atoi" -> ( try Int64.of_string (String.trim (sarg 0)) with _ -> 0L)
  | "abs" -> Int64.abs (arg 0)
  | "exit" -> raise (Exit_exn (arg 0))
  | "rand" -> Int64.of_int (Rsti_util.Splitmix.int t.rng 0x7FFFFFFF)
  | "srand" ->
      t.rng <- Rsti_util.Splitmix.create (arg 0);
      0L
  | "sqrt" -> Int64.bits_of_float (sqrt (Int64.float_of_bits (arg 0)))
  | "fabs" -> Int64.bits_of_float (Float.abs (Int64.float_of_bits (arg 0)))
  | "floor" -> Int64.bits_of_float (Float.floor (Int64.float_of_bits (arg 0)))
  | "ceil" -> Int64.bits_of_float (Float.ceil (Int64.float_of_bits (arg 0)))
  | "pow" ->
      Int64.bits_of_float
        (Float.pow (Int64.float_of_bits (arg 0)) (Int64.float_of_bits (arg 1)))
  | "log" -> Int64.bits_of_float (Float.log (Int64.float_of_bits (arg 0)))
  | "getenv" -> 0L
  | "strdup" ->
      let s = sarg 0 in
      let p = malloc t (String.length s + 1) in
      if p <> 0L then Memory.write_cstring t.mem p s;
      p
  | "qsort" ->
      (* A real qsort: the library calls back *into* the (instrumented)
         program through the comparator pointer — the uninstrumented-
         library boundary case of section 4.6. Insertion sort keeps the
         comparator call count deterministic. *)
      let base = arg 0 in
      let n = Int64.to_int (arg 1) in
      let size = Int64.to_int (arg 2) in
      let cmp_ptr = arg 3 in
      let call_cmp a b =
        match code_at t cmp_ptr with
        | Some (Defined i) -> call_values t i [| a; b |]
        | Some (Libc i) -> run_builtin t i [| a; b |]
        | _ ->
            raise
              (Trap_exn
                 (Bad_indirect_call
                    { target = cmp_ptr; func = "qsort"; after_auth_fail = t.auth_failed }))
      in
      if n > 1 && size > 0 && size <= 4096 then begin
        let elem i = Int64.add base (Int64.of_int (i * size)) in
        let buf = Bytes.create size in
        for i = 1 to n - 1 do
          Bytes.blit (Memory.read_bytes t.mem (elem i) size) 0 buf 0 size;
          let j = ref (i - 1) in
          let continue_ = ref true in
          while !j >= 0 && !continue_ do
            (* compare element j with the held element: the comparator
               receives the *addresses*, C-style *)
            Memory.write_bytes t.mem (elem (!j + 1)) buf;
            let held_addr = elem (!j + 1) in
            if Int64.compare (call_cmp (elem !j) held_addr) 0L > 0 then begin
              Memory.write_bytes t.mem (elem (!j + 1))
                (Memory.read_bytes t.mem (elem !j) size);
              decr j
            end
            else continue_ := false
          done;
          Memory.write_bytes t.mem (elem (!j + 1)) buf
        done
      end;
      0L
  | _ ->
      (* The security-sensitive sinks (system, mprotect, dlopen, exec,
         socket, send, recv, open, read, write, close) and any declared
         extern we have no model for behave as a generic libc stub: it
         runs (the call is counted above) and returns 0. Reaching a sink
         with attacker-controlled state is what scenarios check for in
         [extern_profile]; attack scenarios that redirect control into
         arbitrary libc functions (AOCR's _IO_new_file_overflow, etc.)
         rely on the stub. *)
      0L

(* ------------------------------------------------------------------ *)
(* Instruction execution                                               *)
(* ------------------------------------------------------------------ *)

(* The PA unit's operands and results pass through the register file:
   the modifier in [f.md], the result in [f.res] until [account] has
   seen it, and then into [dst], so a bad destination still fails after
   the op is accounted. Nothing here boxes an [int64]. *)
and exec_shadow_mac t f regs (p : Ir.pac) ~dst ~src ~slot =
  (* section 7: the same scope-type modifiers enforced through a
     CCFI-style MAC stored beside the object instead of in pointer bits.
     Pointers stay raw; each op pays the MAC plus a shadow access. *)
  let fname = f.name in
  let v = get f regs src in
  set_modifier f regs p.p_mod slot;
  let m = Bytes.get_int64_ne regs f.md in
  let slot = get f regs slot in
  let key = p.p_key and static_mod = static_modifier p.p_mod in
  match p.p_kind with
  | Ir.Ksign ->
      if Int64.equal v 0L then I64tbl.remove t.shadow slot
      else begin
        Rsti_pa.Pac.mac t.pac ~key regs ~dst:f.res ~src:(src lsl 3) ~modifier:f.md;
        I64tbl.replace t.shadow slot (Bytes.get_int64_ne regs f.res)
      end;
      account t Op_sign ~func:fname ~key ~static_mod ~modifier:m ~src:v ~result:v ~ok:true;
      set regs dst v
  | Ir.Kauth ->
      let ok =
        if Int64.equal v 0L then not (I64tbl.mem t.shadow slot)
        else
          match I64tbl.find t.shadow slot with
          | expected ->
              Rsti_pa.Pac.mac t.pac ~key regs ~dst:f.res ~src:(src lsl 3) ~modifier:f.md;
              Int64.equal expected (Bytes.get_int64_ne regs f.res)
          | exception Not_found -> false
      in
      account t Op_auth ~func:fname ~key ~static_mod ~modifier:m ~src:v ~result:v ~ok;
      if ok then set regs dst v
      else
        Rsti_pa.Vaddr.corrupt_at (Rsti_pa.Pac.layout t.pac) regs ~dst:(dst lsl 3)
          ~src:(src lsl 3)
  | Ir.Kresign ->
      account t Op_resign ~func:fname ~key ~static_mod ~modifier:m ~src:v ~result:v
        ~ok:true;
      set regs dst v
  | Ir.Kstrip ->
      account t Op_strip ~func:fname ~key ~static_mod ~modifier:static_mod ~src:v
        ~result:v ~ok:true;
      set regs dst v

and exec_pac t f regs (p : Ir.pac) ~dst ~src ~slot =
  if t.backend = `Shadow_mac then exec_shadow_mac t f regs p ~dst ~src ~slot
  else begin
  let fname = f.name in
  let v = get f regs src in
  let src = src lsl 3 and md = f.md and res = f.res in
  let key = p.p_key and static_mod = static_modifier p.p_mod in
  match p.p_kind with
  | Ir.Ksign ->
      set_modifier f regs p.p_mod slot;
      Rsti_pa.Pac.sign t.pac ~key regs ~dst:res ~src ~modifier:md;
      let signed = Bytes.get_int64_ne regs res in
      account t Op_sign ~func:fname ~key ~static_mod
        ~modifier:(Bytes.get_int64_ne regs md) ~src:v ~result:signed ~ok:true;
      set regs dst signed
  | Ir.Kauth ->
      set_modifier f regs p.p_mod slot;
      let ok = Rsti_pa.Pac.auth t.pac ~key regs ~dst:res ~src ~modifier:md in
      let r = Bytes.get_int64_ne regs res in
      account t Op_auth ~func:fname ~key ~static_mod
        ~modifier:(Bytes.get_int64_ne regs md) ~src:v ~result:r ~ok;
      set regs dst r
  | Ir.Kresign ->
      (* Fused aut+pac. In this codebase's discipline in-flight values are
         raw (canonical), so the pair acts as a checked identity; a signed
         value (the pp mechanism) gets a real authenticate + re-sign. A
         failure is the auth half's, so it reports the source modifier. *)
      set_modifier f regs p.p_mod slot;
      let mt = Bytes.get_int64_ne regs md in
      if not (Rsti_pa.Pac.is_signed t.pac regs src) then begin
        account t Op_resign ~func:fname ~key ~static_mod ~modifier:mt ~src:v ~result:v
          ~ok:true;
        set regs dst v
      end
      else begin
        set_modifier f regs p.p_mod_from slot;
        if Rsti_pa.Pac.auth t.pac ~key regs ~dst:res ~src ~modifier:md then begin
          Bytes.set_int64_ne regs md mt;
          Rsti_pa.Pac.sign t.pac ~key regs ~dst:res ~src:res ~modifier:md;
          let resigned = Bytes.get_int64_ne regs res in
          account t Op_resign ~func:fname ~key ~static_mod ~modifier:mt ~src:v
            ~result:resigned ~ok:true;
          set regs dst resigned
        end
        else begin
          let corrupted = Bytes.get_int64_ne regs res in
          account t Op_resign ~func:fname ~key
            ~static_mod:(static_modifier p.p_mod_from)
            ~modifier:(Bytes.get_int64_ne regs md) ~src:v ~result:corrupted ~ok:false;
          set regs dst corrupted
        end
      end
  | Ir.Kstrip ->
      Rsti_pa.Pac.strip t.pac regs ~dst:res ~src;
      let stripped = Bytes.get_int64_ne regs res in
      account t Op_strip ~func:fname ~key ~static_mod ~modifier:static_mod ~src:v
        ~result:stripped ~ok:true;
      set regs dst stripped
  end

and exec_pp t f regs (pp : pp) =
  t.counts.pp_calls <- t.counts.pp_calls + 1;
  prof_pp t;
  let fname = f.name and md = f.md and res = f.res in
  let key = Rsti_pa.Key.DA in
  match pp with
  | Pp_add -> () (* table is static in our model; cost only *)
  | Pp_sign { dst; src; ce; slot } ->
      load_fe t f regs ce;
      let fe = Bytes.get_int64_ne regs md in
      Bytes.set_int64_ne regs md (Int64.logxor fe (get f regs slot));
      let v = get f regs src in
      Rsti_pa.Pac.sign t.pac ~key regs ~dst:res ~src:(src lsl 3) ~modifier:md;
      let signed = Bytes.get_int64_ne regs res in
      account t Op_pp_sign ~func:fname ~key ~static_mod:fe
        ~modifier:(Bytes.get_int64_ne regs md) ~src:v ~result:signed ~ok:true;
      set regs dst signed
  | Pp_add_tbi { dst; src; ce } ->
      if src < 0 then raise f.bad.(lnot src);
      Rsti_pa.Vaddr.with_top_byte_at regs ~dst:(dst lsl 3) ~src:(src lsl 3) ce
  | Pp_auth { dst; src; slot } ->
      let v = get f regs src in
      let src = src lsl 3 in
      load_fe t f regs (Rsti_pa.Vaddr.top_byte_at regs src);
      let fe = Bytes.get_int64_ne regs md in
      Bytes.set_int64_ne regs md (Int64.logxor fe (get f regs slot));
      let ok = Rsti_pa.Pac.auth t.pac ~key regs ~dst:res ~src ~modifier:md in
      let r = Bytes.get_int64_ne regs res in
      account t Op_pp_auth ~func:fname ~key ~static_mod:fe
        ~modifier:(Bytes.get_int64_ne regs md) ~src:v ~result:r ~ok;
      if ok then Rsti_pa.Vaddr.with_top_byte_at regs ~dst:(dst lsl 3) ~src:res 0
      else set regs dst r

(* Signature-based CFI (the LLVM cfi-icall / vfGuard style baseline the
   paper's introduction contrasts RSTI with): an indirect call may only
   land on a function whose prototype matches the call site's static
   signature. It sees nothing of data pointers. *)
and signatures_match (arg_tys : Ctype.t list) (param_tys : Ctype.t list) variadic =
  let rec go a p =
    match (a, p) with
    | [], [] -> true
    | _ :: _, [] -> variadic
    | [], _ :: _ -> false
    | ta :: a', tp :: p' ->
        Ctype.equal (Ctype.strip_all_quals ta) (Ctype.strip_all_quals tp) && go a' p'
  in
  go arg_tys param_tys

and check_cfi _t caller arg_tys (f : Ir.func) =
  let param_tys = List.map (fun (p : Rsti_minic.Tast.var) -> p.v_ty) f.params in
  if not (signatures_match arg_tys param_tys false) then
    raise (Trap_exn (Cfi_violation { func = caller; target = f.name }))

and check_cfi_libc t caller arg_tys name =
  match List.assoc_opt name t.m.Ir.m_externs with
  | Some (Ctype.Func sg) ->
      if not (signatures_match arg_tys sg.Ctype.params sg.Ctype.variadic) then
        raise (Trap_exn (Cfi_violation { func = caller; target = name }))
  | _ -> () (* unknown prototype: coarse CFI allows it *)

(* [regs] is [g]'s register file, the arguments already in place. *)
and call_function t i (g : func) regs : int64 =
  let n = t.call_counts.(i) + 1 in
  t.call_counts.(i) <- n;
  (match t.attacks with [] -> () | _ -> fire_attacks t (On_call (g.name, n)));
  charge t t.costs.call;
  let saved_sp = t.sp in
  let result = exec_block t g regs 0 in
  t.sp <- saved_sp;
  result

(* A call on argument values: the entry points, indirect calls and
   qsort's comparator. *)
and call_values t i (argv : int64 array) : int64 =
  let g = resolved t i in
  let regs = Bytes.copy g.frame in
  Array.iteri (fun j v -> if j < g.nregs then set regs j v) argv;
  call_function t i g regs

(* Block [label] of [f], then the blocks it branches to; returns what
   [f] returns. Each segment counts its visit as it is entered. A plain
   machine accounts per segment: it adds the segment's totals once,
   before its first instruction, and runs the instructions with no step,
   charge or observer test. A segment that would take [counts.instrs]
   past [whole_limit] (one that would cross the step limit, and every
   segment of a profiled or flight-recorded machine) goes through
   [exec_each] instead, so the profiler's site and the recorder's line
   are current whenever either reads them. Resolution built [segs] with
   [seg_width] slots a segment and each segment's stop at most the
   body's length, so both are read unchecked. *)
and exec_block t f regs label : int64 =
  let b = f.blocks.(label) in
  let segs = b.segs and body = b.body and c = t.counts in
  let last = Array.length segs - seg_width in
  let k = ref 0 and i = ref 0 in
  while !k <= last do
    let stop = Array.unsafe_get segs !k and steps = Array.unsafe_get segs (!k + 2) in
    Array.unsafe_set segs (!k + visit_slot) (Array.unsafe_get segs (!k + visit_slot) + 1);
    if c.instrs + steps > t.whole_limit then exec_each t f regs b !i stop (!k = last)
    else begin
      t.cycles <- t.cycles + Array.unsafe_get segs (!k + 1);
      c.instrs <- c.instrs + steps;
      c.loads <- c.loads + Array.unsafe_get segs (!k + 3);
      c.stores <- c.stores + Array.unsafe_get segs (!k + 4);
      let start = !i in
      try
        while !i < stop do
          exec t f regs (Array.unsafe_get body !i) exec_generic;
          incr i
        done
      with e -> (
        take_back t b !k start !i;
        match e with
        | Memory.Fault fault when loads_of body.(!i) + stores_of body.(!i) > 0 ->
            raise (mem_fault t f.name fault)
        | e -> raise e)
    end;
    i := stop;
    k := !k + seg_width
  done;
  match b.term with
  | Ret v -> get f regs v
  | Br l -> exec_block t f regs l
  | Condbr (c, l1, l2) -> exec_block t f regs (if get f regs c = 0L then l2 else l1)
  | Unreachable -> raise (Trap_exn (Unknown_function (f.name ^ ":unreachable")))

(* Instructions [start, stop) of [b], each stepped and charged just
   before it runs, each load and store under its own fault handler, and
   then, when [last] says they end the block, the terminator's charge and
   step: the loop of profiled and flight-recorded machines and of a
   segment that would cross the step limit. *)
and exec_each t f regs b start stop last =
  let c = t.counts in
  for i = start to stop - 1 do
    let code = b.body.(i) in
    if t.profiling then set_site t f.name b.lines.(i);
    if t.recording then t.cur_line <- b.lines.(i);
    step t;
    charge t b.cost.(i);
    c.loads <- c.loads + loads_of code;
    c.stores <- c.stores + stores_of code;
    try exec t f regs code exec_generic
    with Memory.Fault fault when loads_of code + stores_of code > 0 ->
      raise (mem_fault t f.name fault)
  done;
  if last then
    match b.term with
    | Ret _ -> charge t t.costs.branch
    | Br _ | Condbr _ ->
        charge t t.costs.branch;
        step t
    | Unreachable -> ()

(* Calls, the PA unit and the pp runtime, and the instructions that
   fail. *)
and exec_generic t f regs (g : generic) : unit =
  match g with
  | Call { dst; callee; args; arg_tys } ->
      let result =
        match callee with
        | Defined i ->
            let g = resolved t i in
            call_function t i g (frame_of f regs g args)
        | Libc i -> run_builtin t i (Array.map (get f regs) args)
        | Missing name ->
            ignore (Array.map (get f regs) args);
            raise (Trap_exn (Unknown_function name))
        | Via c -> (
            let argv = Array.map (get f regs) args in
            let target = get f regs c in
            match code_at t target with
            | Some (Defined i) ->
                if t.cfi then check_cfi t f.name arg_tys t.funcs.(i);
                call_values t i argv
            | Some (Libc i) ->
                if t.cfi then check_cfi_libc t f.name arg_tys t.libc.(i);
                run_builtin t i argv
            | _ ->
                raise
                  (Trap_exn
                     (Bad_indirect_call
                        { target; func = f.name; after_auth_fail = t.auth_failed })))
      in
      (match dst with Some d -> set regs d result | None -> ())
  | Pac { p; dst; src; slot } -> exec_pac t f regs p ~dst ~src ~slot
  | Pp pp -> exec_pp t f regs pp
  | Fail exn -> raise exn

(* ------------------------------------------------------------------ *)
(* Entry                                                               *)
(* ------------------------------------------------------------------ *)

(* Most-called first, ties by name: the one order of both profiles. *)
let profile name counts =
  let acc = ref [] in
  Array.iteri (fun i n -> if n > 0 then acc := (name i, n) :: !acc) counts;
  List.sort (fun (a, m) (b, n) -> match compare n m with 0 -> compare a b | c -> c) !acc

let run ?(attacks = []) ?step_limit ?(entry = "main") t =
  if t.ran then invalid_arg "Interp.run: machine already ran; create a fresh one";
  t.ran <- true;
  t.attacks <- attacks;
  Option.iter (fun l -> t.step_limit <- l) step_limit;
  t.whole_limit <- (if t.profiling || t.recording then -1 else t.step_limit);
  let status =
    try
      (match Hashtbl.find_opt t.defs Ir.global_init_name with
      | Some i -> ignore (call_values t i [||])
      | None -> ());
      match Hashtbl.find_opt t.defs entry with
      | Some i -> Exited (call_values t i [||])
      | None -> Trapped (Unknown_function entry)
    with
    | Trap_exn tr -> Trapped tr
    | Exit_exn code -> Exited code
  in
  let sites =
    if not t.profiling then []
    else
      Hashtbl.fold (fun _ s acc -> s :: acc) t.prof_sites []
      |> List.sort by_cycles
  in
  {
    status;
    cycles = t.cycles;
    counts = t.counts;
    output = Buffer.contents t.out;
    call_profile = profile (fun i -> t.funcs.(i).name) t.call_counts;
    extern_profile = profile (fun i -> t.libc.(i)) t.extern_counts;
    sites;
    incidents = List.rev t.incidents;
    notes = List.rev t.notes;
    visits = { funcs = t.funcs; code = t.resolved };
  }

(* What executing [c] adds to the PA unit's counts, as [account] and
   [exec_pp] count them, [v] times over. *)
let count_pa (n : counts) v c =
  match c with
  | Generic (Pac { p; _ }) -> (
      match p.p_kind with
      | Ir.Ksign -> n.pac_signs <- n.pac_signs + v
      | Ir.Kauth -> n.pac_auths <- n.pac_auths + v
      | Ir.Kresign ->
          n.pac_signs <- n.pac_signs + v;
          n.pac_auths <- n.pac_auths + v
      | Ir.Kstrip -> n.pac_strips <- n.pac_strips + v)
  | Generic (Pp pp) -> (
      n.pp_calls <- n.pp_calls + v;
      match pp with
      | Pp_sign _ -> n.pac_signs <- n.pac_signs + v
      | Pp_auth _ -> n.pac_auths <- n.pac_auths + v
      | Pp_add | Pp_add_tbi _ -> ())
  | _ -> ()

(* Every charge is an instruction's static cost, a terminator's, [call]
   or [extern_call], and every count an instruction's, so a run that
   exited is the sum of its segment visits times their totals plus its
   calls. A module that enters the same segments as often (RSTI only
   inserts instructions into blocks, never a block or a call) is priced
   from [base]'s visits and its own resolved segments. *)
let price ?costs ?backend modul (base : outcome) =
  (match base.status with
  | Exited _ -> ()
  | Trapped tr -> invalid_arg ("Interp.price: the base run trapped: " ^ trap_to_string tr));
  let t = create ?costs ?backend modul and seen = base.visits in
  let differ what = invalid_arg ("Interp.price: " ^ what ^ " differ from the base run's") in
  if
    Array.length t.funcs <> Array.length seen.funcs
    || not (Array.for_all2 (fun (a : Ir.func) (b : Ir.func) -> a.name = b.name) t.funcs seen.funcs)
  then differ "functions";
  let n = t.counts in
  Array.iteri
    (fun i -> function
      | None -> ()
      | Some (g : func) ->
          let f = resolved t i in
          if Array.length f.blocks <> Array.length g.blocks then differ (f.name ^ "'s blocks");
          Array.iteri
            (fun l (b : block) ->
              let segs = b.segs and entered = g.blocks.(l).segs in
              if Array.length segs <> Array.length entered then
                differ (Printf.sprintf "%s's block %d segments" f.name l);
              let start = ref 0 in
              for k = 0 to (Array.length segs / seg_width) - 1 do
                let k = k * seg_width in
                let v = entered.(k + visit_slot) in
                t.cycles <- t.cycles + (v * segs.(k + 1));
                n.instrs <- n.instrs + (v * segs.(k + 2));
                n.loads <- n.loads + (v * segs.(k + 3));
                n.stores <- n.stores + (v * segs.(k + 4));
                if v > 0 then
                  for j = !start to segs.(k) - 1 do
                    count_pa n v b.body.(j)
                  done;
                start := segs.(k)
              done)
            f.blocks)
    seen.code;
  let calls = List.fold_left (fun a (_, c) -> a + c) 0 in
  {
    base with
    cycles =
      t.cycles
      + (t.costs.call * calls base.call_profile)
      + (t.costs.extern_call * calls base.extern_profile);
    counts = n;
    sites = [];
    incidents = [];
  }

(* A perf-report-style rendering of {!outcome.sites}. The percentage
   column is of the run's total cycles, so the top-N rows under-count
   exactly what the final "other" row holds. *)
let profile_report ?(top = 20) (o : outcome) =
  let total = max 1 o.cycles in
  let shown, rest =
    let rec split n = function
      | [] -> ([], [])
      | l when n = 0 -> ([], l)
      | x :: tl ->
          let a, b = split (n - 1) tl in
          (x :: a, b)
    in
    split top o.sites
  in
  let pct c = Printf.sprintf "%5.1f%%" (100. *. float_of_int c /. float_of_int total) in
  let row s =
    [
      Printf.sprintf "%s:%d" s.s_func s.s_line;
      string_of_int s.s_cycles;
      pct s.s_cycles;
      string_of_int s.s_instrs;
      string_of_int s.s_pac_charges;
      string_of_int s.s_strips;
      string_of_int s.s_pp_calls;
    ]
  in
  let rows = List.map row shown in
  let rows =
    if rest = [] then rows
    else
      let sum f = List.fold_left (fun a s -> a + f s) 0 rest in
      rows
      @ [
          [
            Printf.sprintf "(other: %d sites)" (List.length rest);
            string_of_int (sum (fun s -> s.s_cycles));
            pct (sum (fun s -> s.s_cycles));
            string_of_int (sum (fun s -> s.s_instrs));
            string_of_int (sum (fun s -> s.s_pac_charges));
            string_of_int (sum (fun s -> s.s_strips));
            string_of_int (sum (fun s -> s.s_pp_calls));
          ];
        ]
  in
  Rsti_util.Tab.render
    ~header:[ "site"; "cycles"; "%"; "instrs"; "pac"; "strip"; "pp" ]
    rows
