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
  mutable pac_charges : int;
}

(* One profiled (function, source line) pair. Attribution is exact, not
   sampled: every cycle the machine charges goes through [charge], which
   also adds it to the current site when profiling, so the sites of an
   outcome partition its cycle total. The per-site instrumentation
   counters ([s_pac_charges]/[s_strips]/[s_pp_calls]) mirror the global
   {!counts} ones so {!reprice} moves site cycles exactly too. *)
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
}

let detected (o : outcome) =
  match o.status with
  | Trapped (Mem_fault { after_auth_fail = true; _ })
  | Trapped (Bad_indirect_call { after_auth_fail = true; _ })
  | Trapped (Pac_auth_failure _) ->
      true
  | _ -> false

(* Costs never influence control flow (the step limit counts
   instructions, not cycles), so a finished run's trace is identical
   under any cost record and the cycle total is the only thing to
   adjust. Each instrumentation price maps to one counter: [pac] was
   charged [pac_charges] times (resigns count twice; the pp mechanism's
   sign/auth price at [pp]), [strip] once per [pac_strips], [pp] once
   per [pp_calls], and [pac_spill] rides along with every [pac] charge
   on the [`Pac] backend and never on [`Shadow_mac]. The base ISA
   prices have no exact counters, so a change there is refused. *)
let reprice ~from ~to_ ~pac_spill_charged (o : outcome) =
  let d get = get to_ - get from in
  if
    d (fun (c : Cost.t) -> c.alu) <> 0
    || d (fun (c : Cost.t) -> c.load) <> 0
    || d (fun (c : Cost.t) -> c.store) <> 0
    || d (fun (c : Cost.t) -> c.gep) <> 0
    || d (fun (c : Cost.t) -> c.branch) <> 0
    || d (fun (c : Cost.t) -> c.call) <> 0
    || d (fun (c : Cost.t) -> c.extern_call) <> 0
  then invalid_arg "Interp.reprice: base ISA prices differ";
  let spill =
    if pac_spill_charged then d (fun (c : Cost.t) -> c.pac_spill) else 0
  in
  let d_pac = d (fun (c : Cost.t) -> c.pac) + spill in
  let d_strip = d (fun (c : Cost.t) -> c.strip) in
  let d_pp = d (fun (c : Cost.t) -> c.pp) in
  let cycles =
    o.cycles
    + (d_pac * o.counts.pac_charges)
    + (d_strip * o.counts.pac_strips)
    + (d_pp * o.counts.pp_calls)
  in
  let sites =
    match o.sites with
    | [] -> []
    | sites ->
        List.map
          (fun s ->
            {
              s with
              s_cycles =
                s.s_cycles
                + (d_pac * s.s_pac_charges)
                + (d_strip * s.s_strips)
                + (d_pp * s.s_pp_calls);
            })
          sites
        |> List.sort by_cycles
  in
  { o with cycles; sites }

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
   So a bad name, type or register fails only when it runs. *)
type operand = int

type conv = To_double | To_integer | To_char | Same

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

type code =
  | Alloca of { dst : int; size : int }  (* rounded up to 16 bytes *)
  | Load of { dst : int; addr : operand; byte : bool }
  | Store of { src : operand; addr : operand; byte : bool }
  | Gep of { dst : int; base : operand; off : int }
  | Gepidx of { dst : int; base : operand; size : int; idx : operand }
  | Move of { dst : int; src : operand }
  | Binop of { dst : int; op : Ast.binop; fl : Ir.float_op; a : operand; b : operand }
  | Neg of { dst : int; fl : Ir.float_op; src : operand }
  | Lognot of { dst : int; src : operand }
  | Bitnot of { dst : int; src : operand }
  | Cast_num of { dst : int; src : operand; conv : conv }
  | Call of { dst : int option; callee : callee; args : operand array; arg_tys : Ctype.t list }
  | Pac of { p : Ir.pac; dst : int; src : operand; slot : operand }
  | Pp of pp
  | Fail of { cost : int; exn : exn }  (* charge [cost], then raise [exn] *)

(* [Ret] of a void return reads a constant 0. *)
type term = Ret of operand | Br of int | Condbr of operand * int * int | Unreachable

type block = {
  body : code array;
  lines : int array;  (* each instruction's !dbg line, 0 when it has none *)
  term : term;
}

type func = {
  name : string;  (* the [Ir.func]'s own string: sites compare it with [==] *)
  nregs : int;
  frame : bytes;  (* a fresh register file: [nregs] zeros, then the constants *)
  bad : exn array;
  blocks : block array;
}

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
  libc : string array;  (* libc symbol i sits at [libc_base + 16 i] *)
  syms : (string, callee) Hashtbl.t;  (* [Defined] or [Libc], by name *)
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
  (* exact hot-site profiler; when off, the only cost on the hot path is
     one boolean load per charge and nothing allocates *)
  profiling : bool;
  prof_sites : (string * int, site) Hashtbl.t;
  mutable cur_site : site;
  (* PAC flight recorder; same discipline as the profiler — when off
     ([recording] = false), every PAC op pays one boolean test and
     nothing allocates. When on, the last [Array.length fr_buf] ops are
     kept in a preallocated ring. *)
  recording : bool;
  fr_buf : pac_op array;
  mutable fr_next : int;  (* total ops recorded; slot = fr_next mod cap *)
  signers : pac_op I64tbl.t;
      (* signed value -> the sign op that produced it (latest wins), so
         the observed signer survives even after falling out of the ring *)
  mutable incidents : incident list;  (* reverse *)
  mutable corrupt_at : (int * int) option;
      (* (cycle, instr) of the first intruder store, the corruption
         point detection latency is measured from *)
  mutable cur_line : int;  (* !dbg line of the dispatching instruction *)
}

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
  let syms = Hashtbl.create 64 in
  Array.iteri (fun i (f : Ir.func) -> Hashtbl.replace syms f.name (Defined i)) funcs;
  (* Externs and built-ins live in the simulated libc. *)
  let libc =
    Array.of_list (List.sort_uniq compare (builtin_names @ List.map fst m.m_externs))
  in
  Array.iteri
    (fun i name -> if not (Hashtbl.mem syms name) then Hashtbl.replace syms name (Libc i))
    libc;
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
    libc;
    syms;
    global_addrs;
    string_addrs;
    heap_ptr = Layout.heap_base;
    allocs = [];
    sp = Int64.to_int Layout.stack_top;
    stack_low = Int64.to_int Layout.stack_top;
    cycles = 0;
    counts =
      { instrs = 0; loads = 0; stores = 0; pac_signs = 0; pac_auths = 0;
        pac_strips = 0; pp_calls = 0; pac_charges = 0 };
    notes = [];
    out = Buffer.create 256;
    step_limit = 200_000_000;
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

let pac_ctx t = t.pac

let global_addr t name =
  match Hashtbl.find_opt t.global_addrs name with
  | Some a -> a
  | None -> invalid_arg ("Interp.global_addr: unknown global " ^ name)

let func_addr t name =
  match Hashtbl.find_opt t.syms name with
  | Some (Defined i) -> Layout.code_addr_of_index Layout.text_base i
  | Some (Libc i) -> Layout.code_addr_of_index Layout.libc_base i
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
    if i >= 0 && Hashtbl.find_opt t.syms t.libc.(i) = Some (Libc i) then Some (Libc i)
    else None

(* ------------------------------------------------------------------ *)
(* Resolution                                                          *)
(* ------------------------------------------------------------------ *)

(* Register [r]; a negative operand raises what resolution kept for it. *)
let get f regs r =
  if r < 0 then raise f.bad.(lnot r);
  Bytes.get_int64_ne regs (r lsl 3)
[@@inline]

let set regs r v = Bytes.set_int64_ne regs (r lsl 3) v [@@inline]

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
  let operand (v : Ir.value) =
    match v with
    | Ir.Imm n -> const n
    | Ir.Fimm x -> const (Int64.bits_of_float x)
    | Ir.Reg r -> if in_file r then r else fail (Invalid_argument "index out of bounds")
    | Ir.Null -> const 0L
    | Ir.Global g -> ( match global_addr t g with a -> const a | exception e -> fail e)
    | Ir.Funcaddr f -> ( match func_addr t f with a -> const a | exception e -> fail e)
    | Ir.Str s -> ( match t.string_addrs.(s) with a -> const a | exception e -> fail e)
  in
  let failing cost f = match f () with c -> c | exception exn -> Fail { cost; exn } in
  (* char is one byte, everything else a 64-bit word *)
  let byte ty = match Ctype.strip_const ty with Ctype.Char -> true | _ -> false in
  let conv from_ty to_ty =
    match (Ctype.strip_all_quals from_ty, Ctype.strip_all_quals to_ty) with
    | (Ctype.Char | Ctype.Int | Ctype.Long), Ctype.Double -> To_double
    | Ctype.Double, (Ctype.Char | Ctype.Int | Ctype.Long) -> To_integer
    | _, Ctype.Char -> To_char
    | _ -> Same
  in
  let code (ins : Ir.instr) =
    match ins.i with
    | Ir.Alloca { dst = d; ty; _ } ->
        failing t.costs.alu (fun () ->
            let size = max 8 (Ir.sizeof t.m ty) in
            Alloca { dst = dst d; size = (size + 15) / 16 * 16 })
    | Ir.Load { dst = d; addr; ty; _ } ->
        Load { dst = dst d; addr = operand addr; byte = byte ty }
    | Ir.Store { src; addr; ty; _ } ->
        Store { src = operand src; addr = operand addr; byte = byte ty }
    | Ir.Gep { dst = d; base; sname; field } ->
        failing t.costs.gep (fun () ->
            let off, _ = Ir.field_offset t.m sname field in
            Gep { dst = dst d; base = operand base; off })
    | Ir.Gepidx { dst = d; base; elem; idx } ->
        failing t.costs.gep (fun () ->
            let size = Ir.sizeof t.m elem in
            Gepidx { dst = dst d; base = operand base; size; idx = operand idx })
    | Ir.Bitcast { dst = d; src; _ } -> Move { dst = dst d; src = operand src }
    | Ir.Binop { dst = d; op; fl; a; b } ->
        Binop { dst = dst d; op; fl; a = operand a; b = operand b }
    | Ir.Neg { dst = d; fl; src } -> Neg { dst = dst d; fl; src = operand src }
    | Ir.Lognot { dst = d; src } -> Lognot { dst = dst d; src = operand src }
    | Ir.Bitnot { dst = d; src } -> Bitnot { dst = dst d; src = operand src }
    | Ir.Cast_num { dst = d; src; from_ty; to_ty } ->
        Cast_num { dst = dst d; src = operand src; conv = conv from_ty to_ty }
    | Ir.Call { dst = d; callee; args; arg_tys; _ } ->
        let callee =
          match callee with
          | Ir.Direct name -> (
              match Hashtbl.find_opt t.syms name with Some c -> c | None -> Missing name)
          | Ir.Indirect c -> Via (operand c)
        in
        Call
          { dst = Option.map dst d; callee; args = Array.of_list (List.map operand args);
            arg_tys }
    | Ir.Pac p ->
        Pac { p; dst = dst p.p_dst; src = operand p.p_src; slot = operand p.p_slot_addr }
    | Ir.Pp (Ir.Pp_add _) -> Pp Pp_add
    | Ir.Pp (Ir.Pp_sign { dst = d; src; ce; slot_addr }) ->
        Pp (Pp_sign { dst = dst d; src = operand src; ce; slot = operand slot_addr })
    | Ir.Pp (Ir.Pp_auth { dst = d; src; slot_addr }) ->
        Pp (Pp_auth { dst = dst d; src = operand src; slot = operand slot_addr })
    | Ir.Pp (Ir.Pp_add_tbi { dst = d; src; ce }) ->
        Pp (Pp_add_tbi { dst = dst d; src = operand src; ce })
  in
  let line (ins : Ir.instr) =
    match ins.dbg with Some d -> d.Rsti_ir.Dinfo.dl_line | None -> 0
  in
  let block (b : Ir.block) =
    let instrs = Array.of_list b.instrs in
    let term =
      match b.term with
      | Ir.Ret v -> Ret (operand (Option.value v ~default:(Ir.Imm 0L)))
      | Ir.Br l -> Br l
      | Ir.Condbr (c, l1, l2) -> Condbr (operand c, l1, l2)
      | Ir.Unreachable -> Unreachable
    in
    { body = Array.map code instrs; lines = Array.map line instrs; term }
  in
  let blocks = Array.map block fn.blocks in
  let frame = Bytes.make (8 * (nregs + !nconsts)) '\000' in
  List.iteri (fun k v -> set frame (nregs + !nconsts - 1 - k) v) !consts;
  { name = fn.name; nregs; frame; bad = Array.of_list (List.rev !bad); blocks }

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
      if ok then I64tbl.replace t.signers result op
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
   the incident and the FPAC trap. The caller charges cycles itself,
   because the backends price the same op differently. With the profiler
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
  c.pac_charges <- c.pac_charges + charges;
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

and modifier_value f regs (m : Ir.modifier) slot : int64 =
  match m with
  | Ir.Mconst c -> c
  | Ir.Mloc c -> Int64.logxor c (get f regs slot)

and mac_of t key ~modifier value =
  Rsti_pa.Qarma.encrypt
    ~key:(Rsti_pa.Key.lookup (Rsti_pa.Pac.keys t.pac) key)
    ~tweak:modifier value

and exec_shadow_mac t f regs (p : Ir.pac) ~dst ~src ~slot =
  (* section 7: the same scope-type modifiers enforced through a
     CCFI-style MAC stored beside the object instead of in pointer bits.
     Pointers stay raw; each op pays the MAC plus a shadow access. *)
  let fname = f.name in
  let src = get f regs src in
  let m = modifier_value f regs p.p_mod slot in
  let slot = get f regs slot in
  let key = p.p_key and static_mod = static_modifier p.p_mod in
  match p.p_kind with
  | Ir.Ksign ->
      charge t (t.costs.pac + t.costs.load + t.costs.store);
      if Int64.equal src 0L then I64tbl.remove t.shadow slot
      else I64tbl.replace t.shadow slot (mac_of t key ~modifier:m src);
      account t Op_sign ~func:fname ~key ~static_mod ~modifier:m ~src ~result:src
        ~ok:true;
      set regs dst src
  | Ir.Kauth ->
      charge t (t.costs.pac + t.costs.load);
      let ok =
        if Int64.equal src 0L then not (I64tbl.mem t.shadow slot)
        else
          match I64tbl.find_opt t.shadow slot with
          | Some expected -> Int64.equal expected (mac_of t key ~modifier:m src)
          | None -> false
      in
      account t Op_auth ~func:fname ~key ~static_mod ~modifier:m ~src ~result:src ~ok;
      set regs dst
        (if ok then src else Rsti_pa.Vaddr.corrupt (Rsti_pa.Pac.layout t.pac) src)
  | Ir.Kresign ->
      (* casts carry no per-slot state under the shadow backend *)
      charge t (2 * t.costs.pac);
      account t Op_resign ~func:fname ~key ~static_mod ~modifier:m ~src ~result:src
        ~ok:true;
      set regs dst src
  | Ir.Kstrip ->
      charge t t.costs.strip;
      account t Op_strip ~func:fname ~key ~static_mod ~modifier:static_mod ~src
        ~result:src ~ok:true;
      set regs dst src

and exec_pac t f regs (p : Ir.pac) ~dst ~src ~slot =
  if t.backend = `Shadow_mac then exec_shadow_mac t f regs p ~dst ~src ~slot
  else begin
  let fname = f.name in
  let src = get f regs src in
  let key = p.p_key and static_mod = static_modifier p.p_mod in
  match p.p_kind with
  | Ir.Ksign ->
      charge t (t.costs.pac + t.costs.pac_spill);
      let m = modifier_value f regs p.p_mod slot in
      let signed = Rsti_pa.Pac.sign t.pac ~key ~modifier:m src in
      account t Op_sign ~func:fname ~key ~static_mod ~modifier:m ~src ~result:signed
        ~ok:true;
      set regs dst signed
  | Ir.Kauth ->
      charge t (t.costs.pac + t.costs.pac_spill);
      let m = modifier_value f regs p.p_mod slot in
      let v, ok =
        match Rsti_pa.Pac.auth t.pac ~key ~modifier:m src with
        | Ok v -> (v, true)
        | Error corrupted -> (corrupted, false)
      in
      account t Op_auth ~func:fname ~key ~static_mod ~modifier:m ~src ~result:v ~ok;
      set regs dst v
  | Ir.Kresign ->
      charge t (2 * (t.costs.pac + t.costs.pac_spill));
      (* Fused aut+pac. In this codebase's discipline in-flight values are
         raw (canonical), so the pair acts as a checked identity; a signed
         value (the pp mechanism) gets a real authenticate + re-sign. A
         failure is the auth half's, so it reports the source modifier. *)
      let mt = modifier_value f regs p.p_mod slot in
      if not (Rsti_pa.Pac.is_signed t.pac src) then begin
        account t Op_resign ~func:fname ~key ~static_mod ~modifier:mt ~src
          ~result:src ~ok:true;
        set regs dst src
      end
      else begin
        let mf = modifier_value f regs p.p_mod_from slot in
        match Rsti_pa.Pac.auth t.pac ~key ~modifier:mf src with
        | Ok v ->
            let resigned = Rsti_pa.Pac.sign t.pac ~key ~modifier:mt v in
            account t Op_resign ~func:fname ~key ~static_mod ~modifier:mt ~src
              ~result:resigned ~ok:true;
            set regs dst resigned
        | Error corrupted ->
            account t Op_resign ~func:fname ~key
              ~static_mod:(static_modifier p.p_mod_from) ~modifier:mf ~src
              ~result:corrupted ~ok:false;
            set regs dst corrupted
      end
  | Ir.Kstrip ->
      charge t t.costs.strip;
      let stripped = Rsti_pa.Pac.strip t.pac src in
      account t Op_strip ~func:fname ~key ~static_mod ~modifier:static_mod ~src
        ~result:stripped ~ok:true;
      set regs dst stripped
  end

and exec_pp t f regs (pp : pp) =
  charge t t.costs.pp;
  t.counts.pp_calls <- t.counts.pp_calls + 1;
  prof_pp t;
  let fname = f.name in
  let fe_modifier ce =
    try Memory.read_u64 t.mem (Int64.add pp_meta_base (Int64.of_int (ce * 8)))
    with Memory.Fault fault -> raise (mem_fault t fname fault)
  in
  let key = Rsti_pa.Key.DA in
  match pp with
  | Pp_add -> () (* table is static in our model; cost only *)
  | Pp_sign { dst; src; ce; slot } ->
      let fe = fe_modifier ce in
      let m = Int64.logxor fe (get f regs slot) in
      let v = get f regs src in
      let signed = Rsti_pa.Pac.sign t.pac ~key ~modifier:m v in
      account t Op_pp_sign ~func:fname ~key ~static_mod:fe ~modifier:m ~src:v
        ~result:signed ~ok:true;
      set regs dst signed
  | Pp_add_tbi { dst; src; ce } ->
      set regs dst (Rsti_pa.Vaddr.with_top_byte (get f regs src) ce)
  | Pp_auth { dst; src; slot } ->
      let v = get f regs src in
      let fe = fe_modifier (Rsti_pa.Vaddr.top_byte v) in
      let m = Int64.logxor fe (get f regs slot) in
      let r, ok =
        match Rsti_pa.Pac.auth t.pac ~key ~modifier:m v with
        | Ok r -> (r, true)
        | Error corrupted -> (corrupted, false)
      in
      account t Op_pp_auth ~func:fname ~key ~static_mod:fe ~modifier:m ~src:v
        ~result:r ~ok;
      set regs dst (if ok then Rsti_pa.Vaddr.with_top_byte r 0 else r)

(* Every branch yields its [int64] from primitives alone, and [binop]
   stores it itself: an [int64] returned from a call would be boxed. *)
and binop f regs dst (op : Ast.binop) (fl : Ir.float_op) a b =
  let x = get f regs a and y = get f regs b in
  let bool c = Int64.of_int (Bool.to_int c) in
  let fx = Int64.float_of_bits x and fy = Int64.float_of_bits y in
  set regs dst
    (match (op, fl) with
    | Ast.Add, Ir.Iop -> Int64.add x y
    | Ast.Sub, Ir.Iop -> Int64.sub x y
    | Ast.Mul, Ir.Iop -> Int64.mul x y
    | Ast.Div, Ir.Iop ->
        if y = 0L then raise (Trap_exn (Div_by_zero f.name)) else Int64.div x y
    | Ast.Mod, Ir.Iop ->
        if y = 0L then raise (Trap_exn (Div_by_zero f.name)) else Int64.rem x y
    | Ast.Eq, Ir.Iop -> bool (Int64.equal x y)
    | Ast.Ne, Ir.Iop -> bool (not (Int64.equal x y))
    | Ast.Lt, Ir.Iop -> bool (Int64.compare x y < 0)
    | Ast.Le, Ir.Iop -> bool (Int64.compare x y <= 0)
    | Ast.Gt, Ir.Iop -> bool (Int64.compare x y > 0)
    | Ast.Ge, Ir.Iop -> bool (Int64.compare x y >= 0)
    | Ast.Add, Ir.Fop -> Int64.bits_of_float (fx +. fy)
    | Ast.Sub, Ir.Fop -> Int64.bits_of_float (fx -. fy)
    | Ast.Mul, Ir.Fop -> Int64.bits_of_float (fx *. fy)
    | Ast.Div, Ir.Fop -> Int64.bits_of_float (fx /. fy)
    | Ast.Mod, Ir.Fop -> Int64.bits_of_float (Float.rem fx fy)
    | Ast.Eq, Ir.Fop -> bool (fx = fy)
    | Ast.Ne, Ir.Fop -> bool (fx <> fy)
    | Ast.Lt, Ir.Fop -> bool (fx < fy)
    | Ast.Le, Ir.Fop -> bool (fx <= fy)
    | Ast.Gt, Ir.Fop -> bool (fx > fy)
    | Ast.Ge, Ir.Fop -> bool (fx >= fy)
    (* the bitwise and logical operators read float bits as integers *)
    | Ast.Bitand, _ -> Int64.logand x y
    | Ast.Bitor, _ -> Int64.logor x y
    | Ast.Bitxor, _ -> Int64.logxor x y
    | Ast.Shl, _ -> Int64.shift_left x (Int64.to_int y land 63)
    | Ast.Shr, _ -> Int64.shift_right x (Int64.to_int y land 63)
    | Ast.Logand, _ -> bool (x <> 0L && y <> 0L)
    | Ast.Logor, _ -> bool (x <> 0L || y <> 0L))

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

and exec_block t f regs label : int64 =
  let b = f.blocks.(label) in
  let body = b.body in
  for i = 0 to Array.length body - 1 do
    if t.profiling then set_site t f.name b.lines.(i);
    if t.recording then t.cur_line <- b.lines.(i);
    step t;
    exec t f regs body.(i)
  done;
  match b.term with
  | Ret v ->
      charge t t.costs.branch;
      get f regs v
  | Br l ->
      charge t t.costs.branch;
      step t;
      exec_block t f regs l
  | Condbr (c, l1, l2) ->
      charge t t.costs.branch;
      step t;
      exec_block t f regs (if Int64.equal (get f regs c) 0L then l2 else l1)
  | Unreachable -> raise (Trap_exn (Unknown_function (f.name ^ ":unreachable")))

(* Each case stores its own result: see [binop]. *)
and exec t f regs (c : code) : unit =
  match c with
  | Alloca { dst; size } ->
      charge t t.costs.alu;
      t.sp <- t.sp - size;
      if t.sp < stack_limit then raise (Trap_exn Stack_overflow);
      (* [sp] only falls by an [Alloca], so every byte from [stack_low]
         up has been allocated once and is mapped. *)
      if t.sp < t.stack_low then begin
        Memory.map t.mem ~addr:(Int64.of_int t.sp) ~size:(t.stack_low - t.sp);
        t.stack_low <- t.sp
      end;
      set regs dst (Int64.of_int t.sp)
  | Load { dst; addr; byte } -> (
      charge t t.costs.load;
      t.counts.loads <- t.counts.loads + 1;
      if addr < 0 then raise f.bad.(lnot addr);
      try Memory.load t.mem regs ~dst:(dst lsl 3) ~addr:(addr lsl 3) ~byte
      with Memory.Fault fault -> raise (mem_fault t f.name fault))
  | Store { src; addr; byte } -> (
      charge t t.costs.store;
      t.counts.stores <- t.counts.stores + 1;
      if src < 0 then raise f.bad.(lnot src);
      if addr < 0 then raise f.bad.(lnot addr);
      try Memory.store t.mem regs ~src:(src lsl 3) ~addr:(addr lsl 3) ~byte
      with Memory.Fault fault -> raise (mem_fault t f.name fault))
  | Gep { dst; base; off } ->
      charge t t.costs.gep;
      set regs dst (Int64.add (get f regs base) (Int64.of_int off))
  | Gepidx { dst; base; size; idx } ->
      charge t t.costs.gep;
      set regs dst
        (Int64.add (get f regs base) (Int64.mul (Int64.of_int size) (get f regs idx)))
  | Move { dst; src } ->
      charge t t.costs.alu;
      set regs dst (get f regs src)
  | Binop { dst; op; fl; a; b } ->
      charge t t.costs.alu;
      binop f regs dst op fl a b
  | Neg { dst; fl; src } -> (
      charge t t.costs.alu;
      let v = get f regs src in
      match fl with
      | Ir.Iop -> set regs dst (Int64.neg v)
      | Ir.Fop -> set regs dst (Int64.bits_of_float (-.Int64.float_of_bits v)))
  | Lognot { dst; src } ->
      charge t t.costs.alu;
      set regs dst (Int64.of_int (Bool.to_int (Int64.equal (get f regs src) 0L)))
  | Bitnot { dst; src } ->
      charge t t.costs.alu;
      set regs dst (Int64.lognot (get f regs src))
  | Cast_num { dst; src; conv } -> (
      charge t t.costs.alu;
      let v = get f regs src in
      match conv with
      | To_double -> set regs dst (Int64.bits_of_float (Int64.to_float v))
      | To_integer -> set regs dst (Int64.of_float (Int64.float_of_bits v))
      | To_char -> set regs dst (Int64.logand v 0xFFL)
      | Same -> set regs dst v)
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
  | Fail { cost; exn } ->
      charge t cost;
      raise exn

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
  let status =
    try
      (match Hashtbl.find_opt t.syms Ir.global_init_name with
      | Some (Defined i) -> ignore (call_values t i [||])
      | _ -> ());
      match Hashtbl.find_opt t.syms entry with
      | Some (Defined i) -> Exited (call_values t i [||])
      | _ -> Trapped (Unknown_function entry)
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
