(* Tests for the virtual machine: memory, interpreter semantics,
   builtins, traps, cycle accounting, attacker API. *)

module Memory = Rsti_machine.Interp.Memory
module Interp = Rsti_machine.Interp
module Cost = Rsti_machine.Cost
module Layout = Rsti_machine.Layout
module Pipeline = Rsti_engine.Pipeline

let compiled src = Pipeline.compile (Pipeline.source ~file:"t.c" src)

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let check64 = Alcotest.check Alcotest.int64
let checks = Alcotest.(check string)

(* ------------------------------ memory ----------------------------- *)

let test_mem_u8_roundtrip () =
  let m = Memory.create () in
  Memory.map m ~addr:0x1000L ~size:16;
  Memory.write_u8 m 0x1000L 0xAB;
  checki "u8" 0xAB (Memory.read_u8 m 0x1000L)

let test_mem_u64_roundtrip () =
  let m = Memory.create () in
  Memory.map m ~addr:0x1000L ~size:16;
  Memory.write_u64 m 0x1008L 0xDEADBEEF12345678L;
  check64 "u64" 0xDEADBEEF12345678L (Memory.read_u64 m 0x1008L)

let test_mem_page_straddle () =
  let m = Memory.create () in
  Memory.map m ~addr:0xFF8L ~size:16;
  Memory.write_u64 m 0xFFCL 0x1122334455667788L;
  check64 "straddling u64" 0x1122334455667788L (Memory.read_u64 m 0xFFCL)

let test_mem_unmapped_faults () =
  let m = Memory.create () in
  checkb "unmapped" true
    (try ignore (Memory.read_u8 m 0x5000L) ; false
     with Memory.Fault (Memory.Unmapped _) -> true)

let test_mem_non_canonical_faults () =
  let m = Memory.create () in
  checkb "non-canonical" true
    (try ignore (Memory.read_u64 m 0x00FF_0000_0000_1000L) ; false
     with Memory.Fault (Memory.Non_canonical _) -> true)

let test_mem_read_only () =
  let m = Memory.create () in
  Memory.map m ~addr:0x1000L ~size:64;
  Memory.protect m ~addr:0x1000L ~size:64;
  checkb "write to RO faults" true
    (try Memory.write_u64 m 0x1000L 1L ; false
     with Memory.Fault (Memory.Read_only _) -> true);
  (* raw writes (the runtime's own) bypass protection *)
  Memory.write_u64_raw m 0x1000L 7L;
  check64 "raw write ok" 7L (Memory.read_u64 m 0x1000L)

let test_mem_cstring () =
  let m = Memory.create () in
  Memory.map m ~addr:0x1000L ~size:64;
  Memory.write_cstring m 0x1000L "hello";
  checks "cstring" "hello" (Memory.read_cstring m 0x1000L);
  checki "nul" 0 (Memory.read_u8 m 0x1005L)

(* The load/store unit against a table of what the memory model's word
   and byte accessors gave before the unit and its page cache existed.
   Each row is an address at a mid-page offset (0x400) or at page
   offsets 4089-4095, where a word straddles into the next page; each
   entry reads "load word, load byte, store word then load it, store
   byte then load it", a fault shown as U (unmapped), N (non-canonical)
   or R (read-only) and its address. Every row starts from a fresh
   memory. *)
let load_store_table =
  [
    ( "next mapped", 0x2000_0000L,
      [ "dd0357fc9f05400 0 1122334455667788 cd";
        "b5c919ab4d6d6f 6f 1122334455667788 cd";
        "5000b5c919ab4d6d 6d 1122334455667788 cd";
        "c15000b5c919ab4d 4d 1122334455667788 cd";
        "47c15000b5c919ab ab 1122334455667788 cd";
        "7747c15000b5c919 19 1122334455667788 cd";
        "e77747c15000b5c9 c9 1122334455667788 cd";
        "84e77747c15000b5 b5 1122334455667788 cd" ] );
    ( "next unmapped", 0x1000_0000L,
      [ "75db8dbe79f05400 0 1122334455667788 cd";
        "U10001000 6f U10001000 cd";
        "U10001001 6d U10001000 cd";
        "U10001002 fd U10001000 cd";
        "U10001003 e9 U10001000 cd";
        "U10001004 71 U10001000 cd";
        "U10001005 d4 U10001000 cd";
        "U10001006 1d U10001000 cd" ] );
    ( "unmapped", 0x3000_0000L,
      [ "U30000400 U30000400 U30000400 U30000400";
        "U30001000 U30000ff9 U30000ff9 U30000ff9";
        "U30001001 U30000ffa U30000ffa U30000ffa";
        "U30001002 U30000ffb U30000ffb U30000ffb";
        "U30001003 U30000ffc U30000ffc U30000ffc";
        "U30001004 U30000ffd U30000ffd U30000ffd";
        "U30001005 U30000ffe U30000ffe U30000ffe";
        "U30001006 U30000fff U30000fff U30000fff" ] );
    ( "last canonical", 0xFFFF_FFFF_F000L,
      [ "e2604e08822f0400 0 1122334455667788 cd";
        "N1000000000000 1f N1000000000000 cd";
        "N1000000000001 ac N1000000000000 cd";
        "N1000000000002 5 N1000000000000 cd";
        "N1000000000003 34 N1000000000000 cd";
        "N1000000000004 32 N1000000000000 cd";
        "N1000000000005 59 N1000000000000 cd";
        "N1000000000006 8a N1000000000000 cd" ] );
    ( "non-canonical", 0x0001_0000_2000_0000L,
      [ "N1000020000400 N1000020000400 N1000020000400 N1000020000400";
        "N1000020001000 N1000020000ff9 N1000020000ff9 N1000020000ff9";
        "N1000020001001 N1000020000ffa N1000020000ffa N1000020000ffa";
        "N1000020001002 N1000020000ffb N1000020000ffb N1000020000ffb";
        "N1000020001003 N1000020000ffc N1000020000ffc N1000020000ffc";
        "N1000020001004 N1000020000ffd N1000020000ffd N1000020000ffd";
        "N1000020001005 N1000020000ffe N1000020000ffe N1000020000ffe";
        "N1000020001006 N1000020000fff N1000020000fff N1000020000fff" ] );
    ( "pp metadata", 0x60_8000L,
      [ "40536190efdad400 0 R608400 R608400";
        "U609000 ef U609000 cd";
        "U609001 57 U609000 cd";
        "U609002 73 U609000 cd";
        "U609003 bc U609000 cd";
        "U609004 45 U609000 cd";
        "U609005 4c U609000 cd";
        "U609006 e8 U609000 cd" ] );
    ( "ro next page", 0x4000_0000L,
      [ "3db9850269f05400 0 1122334455667788 cd";
        "e5b2692ded6d6f 6f 1122334455667788 cd";
        "5000e5b2692ded6d 6d 1122334455667788 cd";
        "c15000e5b2692ded ed 1122334455667788 cd";
        "e7c15000e5b2692d 2d 1122334455667788 cd";
        "f9e7c15000e5b269 69 1122334455667788 cd";
        "36f9e7c15000e5b2 b2 1122334455667788 cd";
        "6e36f9e7c15000e5 e5 1122334455667788 cd" ] );
    ( "ro page", 0x5000_0000L,
      [ "d5ae2cc3b9f05400 0 R50000400 R50000400";
        "7da710ef3d6d6f 6f R50000ff9 R50000ff9";
        "50007da710ef3d6d 6d R50000ffa R50000ffa";
        "c150007da710ef3d 3d R50000ffb R50000ffb";
        "37c150007da710ef ef R50000ffc R50000ffc";
        "bb37c150007da710 10 R50000ffd R50000ffd";
        "debb37c150007da7 a7 R50000ffe R50000ffe";
        "62debb37c150007d 7d R50000fff R50000fff" ] );
  ]

let load_store_memory () =
  let m = Memory.create () in
  let fill base size =
    Memory.map m ~addr:base ~size;
    for k = 0 to (size / 8) - 1 do
      let a = Int64.add base (Int64.of_int (8 * k)) in
      Memory.write_u64_raw m a (Int64.mul a 0x9E3779B97F4A7C15L)
    done
  in
  fill 0x2000_0000L 8192;
  fill 0x1000_0000L 4096;
  fill 0xFFFF_FFFF_F000L 4096;
  (* the pointer-to-pointer metadata's layout: the first half of its page *)
  fill 0x60_8000L 4096;
  Memory.protect m ~addr:0x60_8000L ~size:2048;
  fill 0x4000_0000L 8192;
  Memory.protect m ~addr:0x4000_1000L ~size:2048;
  fill 0x5000_0000L 8192;
  Memory.protect m ~addr:0x5000_0000L ~size:4096;
  m

(* Registers: 0 the address, 1 the value to store, 2 the destination. *)
let unit_op ~store ~byte a v =
  let m = load_store_memory () in
  let regs = Bytes.create 24 in
  Bytes.set_int64_ne regs 0 a;
  Bytes.set_int64_ne regs 8 v;
  Bytes.set_int64_ne regs 16 (-1L);
  match
    if store then Memory.store m regs ~src:8 ~addr:0 ~byte;
    Memory.load m regs ~dst:16 ~addr:0 ~byte;
    Bytes.get_int64_ne regs 16
  with
  | v -> Printf.sprintf "%Lx" v
  | exception Memory.Fault (Memory.Unmapped a) -> Printf.sprintf "U%Lx" a
  | exception Memory.Fault (Memory.Non_canonical a) -> Printf.sprintf "N%Lx" a
  | exception Memory.Fault (Memory.Read_only a) -> Printf.sprintf "R%Lx" a

let test_mem_load_store_unit () =
  List.iter
    (fun (name, base, rows) ->
      List.iteri
        (fun i expected ->
          let off = if i = 0 then 0x400 else 4088 + i in
          let a = Int64.add base (Int64.of_int off) in
          checks
            (Printf.sprintf "%s +0x%x" name off)
            expected
            (String.concat " "
               [
                 unit_op ~store:false ~byte:false a 0L;
                 unit_op ~store:false ~byte:true a 0L;
                 unit_op ~store:true ~byte:false a 0x1122334455667788L;
                 unit_op ~store:true ~byte:true a 0x11223344556677CDL;
               ]))
        rows)
    load_store_table;
  (* Many times more pages than the page cache has slots, from two
     regions, so pages that share a slot take turns in it. *)
  let m = Memory.create () in
  let page k =
    Int64.add
      (if k land 1 = 0 then 0x2000_0000L else 0x7fff_f000_0000L)
      (Int64.of_int (4096 * (k / 2)))
  in
  let regs = Bytes.create 16 in
  let access ~store k =
    Bytes.set_int64_ne regs 0 (Int64.add (page k) 8L);
    Bytes.set_int64_ne regs 8 (Int64.of_int (k * 7919));
    if store then Memory.store m regs ~src:8 ~addr:0 ~byte:false
    else begin
      Memory.load m regs ~dst:8 ~addr:0 ~byte:false;
      check64 (Printf.sprintf "page %d" k) (Int64.of_int (k * 7919))
        (Bytes.get_int64_ne regs 8)
    end
  in
  let pages = 1024 in
  for k = 0 to pages - 1 do
    Memory.map m ~addr:(page k) ~size:4096;
    access ~store:true k
  done;
  for k = pages - 1 downto 0 do access ~store:false k done;
  for k = 0 to pages - 1 do access ~store:false ((k * 389) mod pages) done;
  (* Mapping a page again keeps what it holds, whether the cache has it
     (page 0, just read) or not. *)
  access ~store:false 0;
  Memory.map m ~addr:(page 0) ~size:8192;
  Memory.map m ~addr:(Int64.sub (page (pages - 1)) 4096L) ~size:16384;
  access ~store:false 0;
  access ~store:false (pages - 1);
  access ~store:false 2

(* ---------------------------- interpreter --------------------------- *)

let run ?attacks src = Pipeline.run_baseline ?attacks (compiled src)

let exit_code src =
  match (run src).Interp.status with
  | Interp.Exited n -> n
  | Interp.Trapped t -> Alcotest.failf "trap: %s" (Interp.trap_to_string t)

let test_interp_arith () =
  check64 "arith" 14L (exit_code "int main(void) { return 2 + 3 * 4; }")

let test_interp_division_truncates () =
  check64 "C division" (-2L) (exit_code "int main(void) { return -7 / 3; }");
  check64 "C modulo" (-1L) (exit_code "int main(void) { return -7 % 3; }")

let test_interp_div_by_zero_traps () =
  match (run "int main(void) { int z = 0; return 1 / z; }").Interp.status with
  | Interp.Trapped (Interp.Div_by_zero _) -> ()
  | _ -> Alcotest.fail "expected div-by-zero trap"

let test_interp_fib () =
  check64 "fib(10)" 55L
    (exit_code
       "int fib(int n) { if (n < 2) { return n; } return fib(n-1) + fib(n-2); }\n\
        int main(void) { return fib(10); }")

let test_interp_floats () =
  check64 "double math" 7L
    (exit_code "int main(void) { double x = 2.5; double y = 0.5; return (int)(x / y + 2.0); }")

let test_interp_char_semantics () =
  check64 "char ops" 1L
    (exit_code
       "int main(void) { char buf[4]; buf[0] = 'a'; buf[1] = 'b';\n\
        return buf[1] - buf[0]; }")

let test_interp_short_circuit_effects () =
  (* the right-hand side must not run when the left decides *)
  check64 "short circuit" 0L
    (exit_code
       "int hits = 0;\nint bump(void) { hits = hits + 1; return 1; }\n\
        int main(void) { int a = 0; if (a && bump()) { } if (!a || bump()) { }\n\
        return hits; }")

let test_interp_for_continue () =
  (* continue must still execute the step expression *)
  check64 "continue hits step" 20L
    (exit_code
       "int main(void) { int s = 0;\n\
        for (int i = 0; i < 5; i++) { if (i == 2) { continue; } s += 10; }\n\
        return s / 2; }")

let test_interp_do_while () =
  check64 "do-while runs once" 1L
    (exit_code "int main(void) { int n = 0; do { n++; } while (n < 1); return n; }")

let test_interp_cond_expr () =
  check64 "ternary" 5L
    (exit_code "int main(void) { int a = 3; return a > 2 ? 5 : 9; }")

let test_interp_globals_initialized () =
  check64 "global init order" 12L
    (exit_code "int a = 5;\nint b = 7;\nint main(void) { return a + b; }")

let test_interp_function_pointers () =
  check64 "indirect call" 9L
    (exit_code
       "int sq(int x) { return x * x; }\n\
        int main(void) { int (*f)(int) = sq; return f(3); }")

let test_interp_strings_builtins () =
  let o =
    run
      "extern int printf(const char* f, ...);\n\
       extern long strlen(const char* s);\n\
       extern int strcmp(const char* a, const char* b);\n\
       extern char* strstr(const char* h, const char* n);\n\
       int main(void) {\n\
       printf(\"len=%ld cmp=%d found=%d\\n\", strlen(\"abcd\"),\n\
       strcmp(\"a\", \"b\") < 0 ? 1 : 0, strstr(\"hello\", \"ll\") ? 1 : 0);\n\
       return 0; }"
  in
  checks "builtin output" "len=4 cmp=1 found=1\n" o.Interp.output

let test_interp_memcpy_memset () =
  check64 "memcpy/memset" 0L
    (exit_code
       "extern void* memset(void* p, int c, long n);\n\
        extern void* memcpy(void* d, const void* s, long n);\n\
        int main(void) { char a[8]; char b[8];\n\
        memset(a, 65, 8); memcpy(b, a, 8);\n\
        return b[7] == 65 ? 0 : 1; }")

let test_interp_exit_builtin () =
  match (run "extern void exit(int c);\nint main(void) { exit(42); return 0; }").status with
  | Interp.Exited 42L -> ()
  | _ -> Alcotest.fail "exit(42)"

let test_interp_malloc_zeroed () =
  check64 "heap zeroed" 0L
    (exit_code
       "extern void* malloc(long n);\n\
        int main(void) { long* p = (long*) malloc(64); return (int) p[3]; }")

let test_interp_stack_overflow () =
  match
    (run "int boom(int n) { int pad[64]; pad[0] = n; return boom(n + pad[0]); }\n\
          int main(void) { return boom(1); }")
      .status
  with
  | Interp.Trapped Interp.Stack_overflow -> ()
  | s ->
      Alcotest.failf "expected stack overflow, got %s"
        (match s with
        | Interp.Exited n -> Printf.sprintf "exit %Ld" n
        | Interp.Trapped t -> Interp.trap_to_string t)

let test_interp_step_limit () =
  (* step_limit is an Interp-level knob, so build the machine by hand
     from the pipeline's compiled module *)
  let m = Pipeline.ir (compiled "int main(void) { while (1) { } return 0; }") in
  let vm = Interp.create m in
  let o = Interp.run ~step_limit:10_000 vm in
  (match o.status with
  | Interp.Trapped Interp.Step_limit_exceeded -> ()
  | _ -> Alcotest.fail "expected step limit");
  (* the limit counts the instructions the outcome reports *)
  checki "instrs" 10_001 o.counts.instrs

(* A callee starts from exact counters. For every limit in a window
   longer than one iteration of a loop that calls [tick] mid-block, so
   that it spans the instructions before the call, the callee and those
   after it, the plain and the profiled machine stop alike. *)
let test_interp_step_limit_across_call () =
  let m =
    Pipeline.ir
      (compiled
         "int tick(int x) { int y = x * 3; return y - x; }\n\
          int main(void) { int s = 0; while (1) { s = s + 1; s = tick(s); s = s - 1; } \
          return s; }")
  in
  for limit = 100 to 160 do
    let run profile = Interp.run ~step_limit:limit (Interp.create ~profile m) in
    let plain = run false and profiled = run true in
    List.iter
      (fun (what, (o : Interp.outcome)) ->
        (match o.status with
        | Interp.Trapped Interp.Step_limit_exceeded -> ()
        | _ -> Alcotest.failf "%s run at limit %d: expected step limit" what limit);
        checki (Printf.sprintf "%s instrs at limit %d" what limit) (limit + 1)
          o.counts.instrs)
      [ ("plain", plain); ("profiled", profiled) ];
    checki (Printf.sprintf "cycles at limit %d" limit) profiled.cycles plain.cycles
  done

let test_interp_cycles_positive_and_counted () =
  let o = run "int main(void) { int s = 0; for (int i = 0; i < 10; i++) { s += i; } return s; }" in
  checkb "cycles > instrs" true (o.Interp.cycles > o.Interp.counts.instrs);
  checkb "loads counted" true (o.Interp.counts.loads > 0)

let test_interp_snprintf () =
  let o =
    run
      "extern int snprintf(char* buf, long n, const char* f, ...);\n\
       extern int printf(const char* f, ...);\n\
       int main(void) { char b[16]; snprintf(b, 16, \"%d-%d\", 4, 2);\n\
       printf(\"%s\", b); return 0; }"
  in
  checks "snprintf" "4-2" o.Interp.output

let test_interp_machine_single_use () =
  let m = Pipeline.ir (compiled "int main(void) { return 0; }") in
  let vm = Interp.create m in
  ignore (Interp.run vm);
  checkb "second run rejected" true
    (try ignore (Interp.run vm) ; false with Invalid_argument _ -> true)

let test_interp_qsort_callback () =
  (* libc qsort calls back into instrumented program code through the
     comparator pointer: the section-4.6 external-library boundary *)
  let src =
    "extern void qsort(void* base, long n, long size, int (*cmp)(const void* a, const void* b));\n\
     extern int printf(const char* f, ...);\n\
     long data[6];\n\
     int cmp_longs(const void* a, const void* b) {\n\
     long x = *((const long*) a); long y = *((const long*) b);\n\
     return x < y ? -1 : (x > y ? 1 : 0); }\n\
     int main(void) {\n\
     data[0] = 3; data[1] = 1; data[2] = 2; data[3] = 9; data[4] = 0; data[5] = 4;\n\
     qsort((void*) data, 6, sizeof(long), cmp_longs);\n\
     for (int i = 0; i < 6; i++) { printf(\"%ld\", data[i]); }\n\
     return 0; }"
  in
  (* must hold both uninstrumented and under STWC (strip at the boundary) *)
  let c = compiled src in
  let plain = Pipeline.run_baseline c in
  checks "sorted" "012349" plain.Interp.output;
  let o =
    Pipeline.run (Pipeline.instrument Rsti_sti.Rsti_type.Stwc (Pipeline.analyze c))
  in
  checks "sorted under STWC" "012349" o.Interp.output

let test_interp_strdup () =
  check64 "strdup copies" 0L
    (exit_code
       "extern char* strdup(const char* s);\n\
        extern int strcmp(const char* a, const char* b);\n\
        int main(void) { char* d = strdup(\"xyz\"); return strcmp(d, \"xyz\"); }")

let test_interp_calloc_and_math () =
  check64 "calloc + sqrt" 5L
    (exit_code
       "extern void* calloc(long n, long sz);\n\
        extern double sqrt(double x);\n\
        int main(void) { long* a = (long*) calloc(4, 8);\n\
        a[0] = (long) sqrt(25.0); return (int) (a[0] + a[1]); }")

let test_interp_strncpy_strcat () =
  let o =
    run
      "extern char* strncpy(char* d, const char* s, long n);\n\
       extern char* strcat(char* d, const char* s);\n\
       extern int printf(const char* f, ...);\n\
       int main(void) { char b[32]; strncpy(b, \"hello world\", 5);\n\
       strcat(b, \"!\"); printf(\"%s\", b); return 0; }"
  in
  checks "strncpy+strcat" "hello!" o.Interp.output

let test_interp_atoi_putchar () =
  let o =
    run
      "extern int atoi(const char* s);\n\
       extern int putchar(int c);\n\
       int main(void) { int n = atoi(\"65\"); putchar(n); putchar(n + 1); return n; }"
  in
  checks "putchar" "AB" o.Interp.output

let test_interp_unknown_function_traps () =
  (* the type checker rejects undeclared calls, so the runtime trap is
     only reachable through a missing entry point *)
  let c = compiled "int main(void) { return 0; }" in
  match (Pipeline.run_baseline ~entry:"not_main" c).Interp.status with
  | Interp.Trapped (Interp.Unknown_function _) -> ()
  | _ -> Alcotest.fail "expected unknown-function trap"

(* Resolving a function never raises. An instruction that names an
   unknown global, function, string, struct or field, or takes the size
   of void, fails only when it executes, with the exception it always
   raised; the same instruction on a branch not taken is harmless. *)
let test_interp_bad_ir_fails_when_run () =
  let module Ir = Rsti_ir.Ir in
  let module Ctype = Rsti_minic.Ctype in
  let ins i = { Ir.i; dbg = None } in
  let modul taken bad =
    let block label instrs term = { Ir.label; instrs = List.map ins instrs; term } in
    let main =
      {
        Ir.name = "main";
        ret = Ctype.Int;
        params = [];
        blocks =
          [|
            block 0 [] (Ir.Condbr (Ir.Imm taken, 1, 2));
            block 1 [ bad ] (Ir.Ret (Some (Ir.Imm 1L)));
            block 2 [] (Ir.Ret (Some (Ir.Imm 7L)));
          |];
        nregs = 2;
        loc = Rsti_minic.Loc.dummy;
      }
    in
    {
      Ir.m_structs = [ ("s", [ ("f", Ctype.Long) ]) ];
      m_globals = [];
      m_funcs = [ main ];
      m_strings = [| "x" |];
      m_externs = [];
    }
  in
  let load v = Ir.Load { dst = 0; addr = v; ty = Ctype.Long; slot = Ir.Sanon Ctype.Long } in
  let gep sname field = Ir.Gep { dst = 0; base = Ir.Reg 1; sname; field } in
  List.iter
    (fun (name, bad, exn) ->
      let run taken = Interp.run (Interp.create (modul taken bad)) in
      (match (run 0L).Interp.status with
      | Interp.Exited 7L -> ()
      | _ -> Alcotest.failf "%s: the branch not taken must not fail" name);
      Alcotest.check_raises name exn (fun () -> ignore (run 1L)))
    [
      ("global", load (Ir.Global "nope"),
       Invalid_argument "Interp.global_addr: unknown global nope");
      ("function", load (Ir.Funcaddr "nope"),
       Invalid_argument "Interp.func_addr: unknown function nope");
      ("string", load (Ir.Str 5), Invalid_argument "index out of bounds");
      ("struct", gep "nope" "f", Invalid_argument "Ir.struct_lookup: unknown struct nope");
      ("field", gep "s" "nope", Not_found);
      ("sizeof void", Ir.Alloca { dst = 0; ty = Ctype.Void; dv = None },
       Invalid_argument "Ctype.sizeof: void has no size");
      (* register 2 is the first past [nregs] *)
      ("operand register", load (Ir.Reg 2), Invalid_argument "index out of bounds");
      ("destination register",
       Ir.Binop { dst = 2; op = Rsti_minic.Ast.Add; fl = Ir.Iop; a = Ir.Imm 1L; b = Ir.Imm 2L },
       Invalid_argument "index out of bounds");
      (* the value is read before the address, which would fault *)
      ("store from a global",
       Ir.Store { src = Ir.Global "nope"; addr = Ir.Reg 1; ty = Ctype.Long;
                  slot = Ir.Sanon Ctype.Long },
       Invalid_argument "Interp.global_addr: unknown global nope");
      (* with two bad operands, the one read first *)
      ("store from a global to a function",
       Ir.Store { src = Ir.Global "nope"; addr = Ir.Funcaddr "nope"; ty = Ctype.Long;
                  slot = Ir.Sanon Ctype.Long },
       Invalid_argument "Interp.global_addr: unknown global nope");
      ("gepidx of a global by a function",
       Ir.Gepidx { dst = 0; base = Ir.Global "nope"; elem = Ctype.Long; idx = Ir.Funcaddr "nope" },
       Invalid_argument "Interp.func_addr: unknown function nope");
      ("binop of a global",
       Ir.Binop { dst = 0; op = Rsti_minic.Ast.Mul; fl = Ir.Fop; a = Ir.Imm 3L; b = Ir.Global "nope" },
       Invalid_argument "Interp.global_addr: unknown global nope");
      ("unary op of a register",
       Ir.Neg { dst = 0; fl = Ir.Iop; src = Ir.Reg 2 }, Invalid_argument "index out of bounds");
      ("numeric cast of a global",
       Ir.Cast_num { dst = 0; src = Ir.Global "nope"; from_ty = Ctype.Long; to_ty = Ctype.Double },
       Invalid_argument "Interp.global_addr: unknown global nope");
      (* with two bad operands, [a]'s *)
      ("binop of a function and a global",
       Ir.Binop { dst = 0; op = Rsti_minic.Ast.Mod; fl = Ir.Iop; a = Ir.Funcaddr "nope";
                  b = Ir.Global "nope" },
       Invalid_argument "Interp.func_addr: unknown function nope");
    ]

(* The reference semantics of the machine's arithmetic: each operator
   on two 64-bit registers, a float read from and written as its bits.
   [None] is a division-by-zero trap. *)
let reference_binop (op : Rsti_minic.Ast.binop) (fl : Rsti_ir.Ir.float_op) x y =
  let module Ast = Rsti_minic.Ast in
  let module Ir = Rsti_ir.Ir in
  let fx = Int64.float_of_bits x and fy = Int64.float_of_bits y in
  let truth c = if c then 1L else 0L and bits = Int64.bits_of_float in
  match (op, fl) with
  | Ast.Add, Ir.Iop -> Some (Int64.add x y)
  | Ast.Sub, Ir.Iop -> Some (Int64.sub x y)
  | Ast.Mul, Ir.Iop -> Some (Int64.mul x y)
  | Ast.Div, Ir.Iop -> if y = 0L then None else Some (Int64.div x y)
  | Ast.Mod, Ir.Iop -> if y = 0L then None else Some (Int64.rem x y)
  | Ast.Eq, Ir.Iop -> Some (truth (Int64.equal x y))
  | Ast.Ne, Ir.Iop -> Some (truth (not (Int64.equal x y)))
  | Ast.Lt, Ir.Iop -> Some (truth (Int64.compare x y < 0))
  | Ast.Le, Ir.Iop -> Some (truth (Int64.compare x y <= 0))
  | Ast.Gt, Ir.Iop -> Some (truth (Int64.compare x y > 0))
  | Ast.Ge, Ir.Iop -> Some (truth (Int64.compare x y >= 0))
  | Ast.Add, Ir.Fop -> Some (bits (fx +. fy))
  | Ast.Sub, Ir.Fop -> Some (bits (fx -. fy))
  | Ast.Mul, Ir.Fop -> Some (bits (fx *. fy))
  | Ast.Div, Ir.Fop -> Some (bits (fx /. fy))
  | Ast.Mod, Ir.Fop -> Some (bits (Float.rem fx fy))
  | Ast.Eq, Ir.Fop -> Some (truth (fx = fy))
  | Ast.Ne, Ir.Fop -> Some (truth (fx <> fy))
  | Ast.Lt, Ir.Fop -> Some (truth (fx < fy))
  | Ast.Le, Ir.Fop -> Some (truth (fx <= fy))
  | Ast.Gt, Ir.Fop -> Some (truth (fx > fy))
  | Ast.Ge, Ir.Fop -> Some (truth (fx >= fy))
  (* the bitwise and logical operators read float bits as integers *)
  | Ast.Bitand, _ -> Some (Int64.logand x y)
  | Ast.Bitor, _ -> Some (Int64.logor x y)
  | Ast.Bitxor, _ -> Some (Int64.logxor x y)
  | Ast.Shl, _ -> Some (Int64.shift_left x (Int64.to_int y land 63))
  | Ast.Shr, _ -> Some (Int64.shift_right x (Int64.to_int y land 63))
  | Ast.Logand, _ -> Some (truth (x <> 0L && y <> 0L))
  | Ast.Logor, _ -> Some (truth (x <> 0L || y <> 0L))

(* Every arithmetic instruction, on constant operands drawn from
   boundary values (integers, shift counts and float bits), runs to its
   reference result, or to a division-by-zero trap, on a plain, a
   profiled and a flight-recorded machine, with the same instructions
   and cycles on all three. *)
let test_interp_operator_table () =
  let module Ir = Rsti_ir.Ir in
  let module Ctype = Rsti_minic.Ctype in
  let module Ast = Rsti_minic.Ast in
  let modul i =
    let main =
      {
        Ir.name = "main";
        ret = Ctype.Long;
        params = [];
        blocks =
          [| { Ir.label = 0; instrs = [ { Ir.i; dbg = None } ]; term = Ir.Ret (Some (Ir.Reg 0)) } |];
        nregs = 1;
        loc = Rsti_minic.Loc.dummy;
      }
    in
    { Ir.m_structs = []; m_globals = []; m_funcs = [ main ]; m_strings = [||]; m_externs = [] }
  in
  let bits = Int64.bits_of_float in
  let values =
    [ 0L; 1L; -1L; Int64.min_int; Int64.max_int; 63L; 64L; bits Float.nan; bits Float.infinity;
      bits Float.neg_infinity; bits (-0.0); bits 1.0; bits (-1.0) ]
  in
  let show = function Some v -> Printf.sprintf "exit %Lx" v | None -> "division by zero" in
  let check name i want =
    let runs =
      List.map
        (fun (profile, flight) -> Interp.run (Interp.create ~profile ~flight (modul i)))
        [ (false, 0); (true, 0); (false, 16) ]
    in
    List.iter2
      (fun machine (o : Interp.outcome) ->
        let got =
          match o.Interp.status with
          | Interp.Exited v -> show (Some v)
          | Interp.Trapped (Interp.Div_by_zero "main") -> show None
          | Interp.Trapped tr -> Interp.trap_to_string tr
        in
        if got <> show want then Alcotest.failf "%s on the %s machine: %s, want %s" name machine got (show want))
      [ "plain"; "profiled"; "flight-recorded" ] runs;
    match runs with
    | plain :: others ->
        List.iter
          (fun (o : Interp.outcome) ->
            if o.Interp.counts.Interp.instrs <> plain.Interp.counts.Interp.instrs
               || o.Interp.cycles <> plain.Interp.cycles
            then Alcotest.failf "%s: instrs or cycles differ between machines" name)
          others
    | [] -> ()
  in
  let ops =
    Ast.[ Add; Sub; Mul; Div; Mod; Eq; Ne; Lt; Le; Gt; Ge; Logand; Logor; Bitand; Bitor; Bitxor; Shl; Shr ]
  in
  List.iter
    (fun fl ->
      List.iteri
        (fun k op ->
          List.iter
            (fun x ->
              List.iter
                (fun y ->
                  check
                    (Printf.sprintf "op %d %s %Lx %Lx" k (if fl = Ir.Fop then "fop" else "iop") x y)
                    (Ir.Binop { dst = 0; op; fl; a = Ir.Imm x; b = Ir.Imm y })
                    (reference_binop op fl x y))
                values)
            values)
        ops)
    [ Ir.Iop; Ir.Fop ];
  let unary name i f =
    List.iter (fun x -> check (Printf.sprintf "%s %Lx" name x) (i (Ir.Imm x)) (Some (f x))) values
  in
  let float_of = Int64.float_of_bits in
  unary "neg" (fun src -> Ir.Neg { dst = 0; fl = Ir.Iop; src }) Int64.neg;
  unary "fneg" (fun src -> Ir.Neg { dst = 0; fl = Ir.Fop; src }) (fun x -> bits (-.float_of x));
  unary "lognot" (fun src -> Ir.Lognot { dst = 0; src }) (fun x -> if x = 0L then 1L else 0L);
  unary "bitnot" (fun src -> Ir.Bitnot { dst = 0; src }) Int64.lognot;
  let cast from_ty to_ty src = Ir.Cast_num { dst = 0; src; from_ty; to_ty } in
  unary "long to double" (cast Ctype.Long Ctype.Double) (fun x -> bits (Int64.to_float x));
  unary "double to long" (cast Ctype.Double Ctype.Long) (fun x -> Int64.of_float (float_of x));
  unary "long to char" (cast Ctype.Long Ctype.Char) (fun x -> Int64.logand x 0xFFL);
  unary "int to long" (cast Ctype.Int Ctype.Long) Fun.id

(* A pointer-to-pointer op reads its FE modifier from the pp metadata
   page; on a machine created without a [pp_table] nothing is mapped
   there, so the read faults and the run ends in a trap, as a load from
   an unmapped address does. *)
let test_interp_pp_without_metadata_traps () =
  let module Ir = Rsti_ir.Ir in
  let module Ctype = Rsti_minic.Ctype in
  let modul pp =
    let main =
      {
        Ir.name = "main";
        ret = Ctype.Int;
        params = [];
        blocks =
          [|
            { Ir.label = 0; instrs = [ { Ir.i = Ir.Pp pp; dbg = None } ];
              term = Ir.Ret (Some (Ir.Imm 0L)) };
          |];
        nregs = 1;
        loc = Rsti_minic.Loc.dummy;
      }
    in
    { Ir.m_structs = []; m_globals = []; m_funcs = [ main ]; m_strings = [||];
      m_externs = [] }
  in
  List.iter
    (fun (name, pp) ->
      match (Interp.run (Interp.create (modul pp))).Interp.status with
      | Interp.Trapped (Interp.Mem_fault _) -> ()
      | Interp.Trapped tr ->
          Alcotest.failf "%s: expected a memory fault, got %s" name
            (Interp.trap_to_string tr)
      | Interp.Exited c -> Alcotest.failf "%s: exited %Ld" name c)
    [
      ("pp_sign", Ir.Pp_sign { dst = 0; src = Ir.Imm 5L; ce = 3; slot_addr = Ir.Imm 0L });
      ("pp_auth", Ir.Pp_auth { dst = 0; src = Ir.Imm 5L; slot_addr = Ir.Imm 0L });
    ]

(* Constants live in registers above a function's own; a function with
   more than 300 distinct ones (integers and doubles) runs as it did when
   each operand carried its constant. *)
let test_interp_many_constants () =
  let body =
    String.concat ""
      (List.init 320 (fun k ->
           Printf.sprintf "  s = s * 31 + %d;\n  x = x * 0.5 + %d.25;\n" (1000 + (7 * k)) k))
  in
  let src =
    Printf.sprintf
      "extern int printf(const char *fmt, ...);\n\
       int main(void) {\n  long s = 0;\n  double x = 1.0;\n%s  printf(\"%%ld %%f\\n\", s, x);\n\
      \  return (int) (s %% 251);\n}\n"
      body
  in
  let o = Interp.run (Interp.create (Pipeline.ir (compiled src))) in
  let c = o.Interp.counts in
  checks "status" "exit 20"
    (match o.Interp.status with
    | Interp.Exited n -> Printf.sprintf "exit %Ld" n
    | Interp.Trapped t -> Interp.trap_to_string t);
  checks "output" "7863655130013459552 636.5\n" o.Interp.output;
  checki "instrs" 2570 c.Interp.instrs;
  checki "cycles" 4519 o.Interp.cycles;
  checki "loads" 643 c.Interp.loads;
  checki "stores" 642 c.Interp.stores

(* The machine's hot path allocates nothing: a call-free loop of word and
   byte loads and stores, indexed addresses, integer and float
   arithmetic and branches, and, built under STL and PARTS, the PAC
   signs and auths of its global pointer. *)
let test_interp_hot_loop_allocates_nothing () =
  let src =
    {|extern int printf(const char *fmt, ...);
long words[64];
char bytes[64];
long *cursor;
int main(void) {
  long sum = 0;
  double x = 0.5;
  for (int i = 0; i < 20000; i++) {
    words[i % 64] = words[(i + 1) % 64] + i;
    bytes[i % 64] = (char) (i & 127);
    cursor = &words[(i + 7) % 64];
    sum = sum + words[i % 64] + bytes[(i + 3) % 64] + *cursor;
    x = x * 0.999 + 1.5;
  }
  printf("%ld %f\n", sum, x);
  return 0;
}
|}
  in
  let c = compiled src in
  let analyzed = Pipeline.analyze c in
  List.iter
    (fun (label, mech, want_instrs, want_pac) ->
      let modul, pp_table =
        match mech with
        | None -> (Pipeline.ir c, [])
        | Some mech ->
            let r = Pipeline.result (Pipeline.instrument mech analyzed) in
            (r.Rsti_rsti.Instrument.modul, r.Rsti_rsti.Instrument.pp_table)
      in
      let vm = Interp.create ~pp_table modul in
      let before = Gc.minor_words () in
      let o = Interp.run vm in
      let words = Gc.minor_words () -. before in
      let counts = o.Interp.counts in
      let instrs = counts.Interp.instrs in
      checks (label ^ " output") "42345334816 1500\n" o.Interp.output;
      checki (label ^ " instrs") want_instrs instrs;
      checki (label ^ " PAC signs") want_pac counts.Interp.pac_signs;
      checki (label ^ " PAC auths") want_pac counts.Interp.pac_auths;
      let per_instr = words /. float_of_int instrs in
      if per_instr >= 0.05 then
        Alcotest.failf "%s: %.3f minor words per simulated instruction (%.0f words)"
          label per_instr words)
    [
      ("uninstrumented", None, 1020013, 0);
      ("STL", Some Rsti_sti.Rsti_type.Stl, 1060014, 20000);
      ("PARTS", Some Rsti_sti.Rsti_type.Parts, 1060014, 20000);
    ]

let test_interp_profiles_populated () =
  let o =
    run
      "extern int printf(const char* f, ...);\n\
       void tick(void) { }\n\
       int main(void) { for (int i = 0; i < 5; i++) { tick(); } printf(\"x\"); return 0; }"
  in
  checkb "tick counted 5x" true (List.assoc_opt "tick" o.Interp.call_profile = Some 5);
  checkb "printf counted" true (List.assoc_opt "printf" o.Interp.extern_profile = Some 1)

(* Equal counts come out by name, not in hash-table order. *)
let test_interp_profile_order () =
  let o =
    run
      "extern int puts(const char* s);\n\
       extern int putchar(int c);\n\
       void tick(void) { }\n\
       void tock(void) { }\n\
       int main(void) { tick(); tock(); tick(); putchar(65); puts(\"x\"); return 0; }"
  in
  let show l = String.concat " " (List.map (fun (n, c) -> Printf.sprintf "%s:%d" n c) l) in
  checks "calls" "tick:2 __rsti_global_init:1 main:1 tock:1" (show o.Interp.call_profile);
  checks "libc" "putchar:1 puts:1" (show o.Interp.extern_profile)

(* An outcome holds counters and profiles, not a trace of the run, so its
   size does not grow with the number of calls the program made. *)
let test_interp_outcome_size_bounded () =
  let words calls =
    Obj.reachable_words
      (Obj.repr
         (run
            (Printf.sprintf
               "void f(void) { }\n\
                int main(void) { for (int i = 0; i < %d; i++) { f(); } return 0; }"
               calls)))
  in
  checki "10 calls vs 100000 calls" (words 10) (words 100_000)

(* Bad arguments to the simulated libc end the run the way they end a C
   program, never with an OCaml exception out of [Interp.run]. A bad
   pointer, or a negative length (a huge size_t in C), faults inside the
   builtin; a negative strncmp length compares the whole strings; a
   conversion cut off by the end of the format prints as text. *)
let test_interp_libc_bad_input () =
  let decls =
    "extern char* strcpy(char* d, const char* s);\n\
     extern char* strncpy(char* d, const char* s, long n);\n\
     extern long strlen(const char* s);\n\
     extern int strncmp(const char* a, const char* b, long n);\n\
     extern int printf(const char* f, ...);\n\
     extern void* memcpy(void* d, const void* s, long n);\n\
     extern void* memmove(void* d, const void* s, long n);\n\
     extern void* memset(void* p, int c, long n);\n\
     extern void* calloc(long n, long size);\n"
  in
  List.iter
    (fun (body, expect) ->
      let o =
        run (decls ^ "int main(void) { char a[8]; char b[8]; a[0] = 0;\n" ^ body ^ "\nreturn 0; }")
      in
      match (expect, o.Interp.status) with
      | `Faults_in f, Interp.Trapped (Interp.Mem_fault { func; after_auth_fail; _ }) ->
          checks body f func;
          checkb (body ^ ": no auth failed") false after_auth_fail
      | `Prints s, Interp.Exited 0L -> checks body s o.Interp.output
      | `Returns n, Interp.Exited m -> check64 body n m
      | _, Interp.Exited m -> Alcotest.failf "%s: exited %Ld" body m
      | _, Interp.Trapped t -> Alcotest.failf "%s: %s" body (Interp.trap_to_string t))
    [
      ("strcpy((char*) 16, \"abc\");", `Faults_in "strcpy");
      ("strlen((char*) 16);", `Faults_in "strlen");
      ("printf(\"%s\", (char*) 16);", `Faults_in "printf");
      ("memcpy(b, (char*) 16, 4);", `Faults_in "memcpy");
      ("strncpy(b, \"abc\", -1);", `Faults_in "strncpy");
      ("memcpy(b, a, -1);", `Faults_in "memcpy");
      ("memmove(b, a, -1);", `Faults_in "memmove");
      ("memset(b, 0, -1);", `Faults_in "memset");
      ("memcpy(b, a, 1099511627776L);", `Faults_in "memcpy");
      ("memmove(b, a, 4611686018427387000L);", `Faults_in "memmove");
      ("b[4] = 7; strncpy(b, \"abcdefgh\", 4); return b[4];", `Returns 7L);
      ("b[6] = 7; strncpy(b, \"ab\", 8); return b[6];", `Returns 0L);
      ("strncpy(b, a, 1099511627776L);", `Faults_in "strncpy");
      ("return calloc(-1, -1) == 0 ? 3 : 4;", `Returns 3L);
      ("return calloc(4611686018427387904L, 4) == 0 ? 3 : 4;", `Returns 3L);
      ("return strncmp(\"abc\", \"abd\", -1) < 0 ? 3 : 4;", `Returns 3L);
      ("printf(\"%l\");", `Prints "%l");
      ("printf(\"x%5\");", `Prints "x%5");
    ]

let test_interp_switch_semantics () =
  check64 "fallthrough + default" 422L
    (exit_code
       "int main(void) { int total = 0;\n\
        for (int i = 0; i < 6; i++) {\n\
        switch (i % 3) { case 0: continue; case 1: total += 10; break;\n\
        default: total += 1; }\n\
        total += 100; }\n\
        return total; }")

let test_interp_switch_no_default () =
  check64 "unmatched falls out" 7L
    (exit_code
       "int main(void) { int x = 7; switch (x) { case 1: x = 0; break; } return x; }")

(* --------------------------- attacker API --------------------------- *)

let test_attack_hooks_fire_in_order () =
  let fired = ref [] in
  let atk name trigger =
    { Interp.trigger; action = (fun intr -> intr.note name; fired := name :: !fired) }
  in
  let src =
    "extern int printf(const char* f, ...);\n\
     void step(int n) { printf(\"step %d\\n\", n); }\n\
     int main(void) { step(1); step(2); step(3); return 0; }"
  in
  let o =
    run
      ~attacks:
        [ atk "on-2nd-step" (Interp.On_call ("step", 2));
          atk "on-1st-printf" (Interp.On_extern ("printf", 1)) ]
      src
  in
  checki "both fired" 2 (List.length !fired);
  Alcotest.(check (list string))
    "notes in firing order" [ "on-1st-printf"; "on-2nd-step" ] o.Interp.notes

let test_attack_write_visible_to_program () =
  let src = "long g = 1;\nvoid poke(void) { }\nint main(void) { poke(); return (int) g; }" in
  let atk =
    {
      Interp.trigger = Interp.On_call ("poke", 1);
      action = (fun intr -> intr.write_word (intr.global_addr "g") 99L);
    }
  in
  match (run ~attacks:[ atk ] src).status with
  | Interp.Exited 99L -> ()
  | _ -> Alcotest.fail "attacker write not visible"

let test_attack_heap_allocs_listed () =
  let seen = ref 0 in
  let src =
    "extern void* malloc(long n);\nvoid mark(void) { }\n\
     int main(void) { void* a = malloc(16); void* b = malloc(32); mark();\n\
     return a && b ? 0 : 1; }"
  in
  let atk =
    {
      Interp.trigger = Interp.On_call ("mark", 1);
      action = (fun intr -> seen := List.length (intr.heap_allocs ()));
    }
  in
  ignore (run ~attacks:[ atk ] src);
  checki "two allocations" 2 !seen

(* ------------------------------ pricing ----------------------------- *)

(* One uninstrumented run at the default prices, priced as the baseline,
   STWC on both backends and a syntactically elided STWC build, under
   other PA prices and another base-ISA record: each must equal the
   build executed under those prices, whether the run was plain,
   profiled or flight-recorded. Of the SPEC2006 kernels, namd is one
   whose syntactic elision drops sites. *)
let test_interp_price_matches_execution () =
  let kernel name =
    (List.find (fun (w : Rsti_workloads.Workload.t) -> w.name = name) Rsti_workloads.Spec2006.all)
      .source
  in
  let prices =
    List.map (fun pac -> (Printf.sprintf "pac=%d" pac, Cost.with_pac Cost.default pac)) [ 3; 5; 9; 12 ]
    @ [ ("load=5 call=9", { Cost.default with load = 5; call = 9 }) ]
  in
  List.iter
    (fun (prog, src) ->
      let c = compiled src in
      let a = Pipeline.analyze c in
      let stwc_i = Pipeline.instrument Rsti_sti.Rsti_type.Stwc a in
      let stwc = Pipeline.result stwc_i in
      let elided =
        Pipeline.instrument
          ~config:{ Pipeline.default with elision = Rsti_staticcheck.Elide.Syntactic }
          Rsti_sti.Rsti_type.Stwc a
      in
      if prog = "namd" then
        checkb "namd: elision drops sites" true ((Pipeline.counts elided).elided > 0);
      let elided = Pipeline.result elided in
      let builds =
        [
          ("baseline", Pipeline.ir c, [], `Pac);
          ("STWC", stwc.modul, stwc.pp_table, `Pac);
          ("STWC shadow-MAC", stwc.modul, stwc.pp_table, `Shadow_mac);
          ("STWC elided", elided.modul, elided.pp_table, `Pac);
        ]
      in
      let bases =
        List.map
          (fun (how, profile, flight) ->
            (how, Interp.run (Interp.create ~profile ~flight (Pipeline.ir c))))
          [ ("plain", false, 0); ("profiled", true, 0); ("flight-recorded", false, 16) ]
      in
      List.iter
        (fun (label, costs) ->
          List.iter
            (fun (build, modul, pp_table, backend) ->
              let run = Interp.run (Interp.create ~costs ~backend ~pp_table modul) in
              List.iter
                (fun (how, base) ->
                  Test_observe.check_same_outcome
                    (Printf.sprintf "%s %s at %s from a %s run" prog build label how)
                    run
                    (Interp.price ~costs ~backend modul base))
                bases)
            builds;
          (* the engine's outcome cache keys on the whole cost record *)
          checki
            (Printf.sprintf "%s STWC at %s, served by the engine" prog label)
            (Interp.price ~costs stwc.modul (List.assoc "plain" bases)).Interp.cycles
            (Pipeline.run ~config:{ Pipeline.default with costs } stwc_i).Interp.cycles)
        prices)
    [ ("perlbench", kernel "perlbench"); ("namd", kernel "namd"); ("exit", Test_observe.exit_nested_src) ];
  let refused name base modul =
    match Interp.price modul base with
    | _ -> Alcotest.failf "%s: priced" name
    | exception Invalid_argument _ -> ()
  in
  let trapped = compiled "int main(void) { int z = 0; return 1 / z; }" in
  refused "trapped base" (Interp.run (Interp.create (Pipeline.ir trapped))) (Pipeline.ir trapped);
  let calls n =
    Pipeline.ir
      (compiled
         (Printf.sprintf "void tick(void) { }\nint main(void) { %s return 0; }"
            (String.concat " " (List.init n (fun _ -> "tick();")))))
  in
  refused "one call more" (Interp.run (Interp.create (calls 1))) (calls 2)

(* ------------------------------- cost ------------------------------- *)

let test_cost_model_scales () =
  let c =
    compiled
      "int main(void) { int s = 0; for (int i = 0; i < 50; i++) { s += i; } return s; }"
  in
  let run_with costs =
    (Pipeline.run_baseline ~config:{ Pipeline.default with Pipeline.costs } c)
      .Interp.cycles
  in
  let base = run_with Cost.default in
  let double = run_with { Cost.default with alu = Cost.default.alu * 2 } in
  checkb "alu cost scales cycles" true (double > base)

let test_cost_with_pac () =
  checki "with_pac" 11 (Cost.with_pac Cost.default 11).Cost.pac

let tests =
  [
    Alcotest.test_case "mem: u8 roundtrip" `Quick test_mem_u8_roundtrip;
    Alcotest.test_case "mem: u64 roundtrip" `Quick test_mem_u64_roundtrip;
    Alcotest.test_case "mem: page straddle" `Quick test_mem_page_straddle;
    Alcotest.test_case "mem: unmapped faults" `Quick test_mem_unmapped_faults;
    Alcotest.test_case "mem: non-canonical faults" `Quick test_mem_non_canonical_faults;
    Alcotest.test_case "mem: read-only regions" `Quick test_mem_read_only;
    Alcotest.test_case "mem: cstrings" `Quick test_mem_cstring;
    Alcotest.test_case "memory: load/store unit" `Quick test_mem_load_store_unit;
    Alcotest.test_case "interp: arithmetic" `Quick test_interp_arith;
    Alcotest.test_case "interp: division truncates" `Quick test_interp_division_truncates;
    Alcotest.test_case "interp: div by zero" `Quick test_interp_div_by_zero_traps;
    Alcotest.test_case "interp: recursion (fib)" `Quick test_interp_fib;
    Alcotest.test_case "interp: floats" `Quick test_interp_floats;
    Alcotest.test_case "interp: char semantics" `Quick test_interp_char_semantics;
    Alcotest.test_case "interp: short-circuit" `Quick test_interp_short_circuit_effects;
    Alcotest.test_case "interp: for-continue" `Quick test_interp_for_continue;
    Alcotest.test_case "interp: do-while" `Quick test_interp_do_while;
    Alcotest.test_case "interp: ternary" `Quick test_interp_cond_expr;
    Alcotest.test_case "interp: global init" `Quick test_interp_globals_initialized;
    Alcotest.test_case "interp: function pointers" `Quick test_interp_function_pointers;
    Alcotest.test_case "interp: string builtins" `Quick test_interp_strings_builtins;
    Alcotest.test_case "interp: memcpy/memset" `Quick test_interp_memcpy_memset;
    Alcotest.test_case "interp: exit()" `Quick test_interp_exit_builtin;
    Alcotest.test_case "interp: heap zeroed" `Quick test_interp_malloc_zeroed;
    Alcotest.test_case "interp: stack overflow" `Quick test_interp_stack_overflow;
    Alcotest.test_case "interp: step limit" `Quick test_interp_step_limit;
    Alcotest.test_case "interp: step limit across a call" `Quick
      test_interp_step_limit_across_call;
    Alcotest.test_case "interp: cycle accounting" `Quick test_interp_cycles_positive_and_counted;
    Alcotest.test_case "interp: snprintf" `Quick test_interp_snprintf;
    Alcotest.test_case "interp: single use" `Quick test_interp_machine_single_use;
    Alcotest.test_case "interp: switch semantics" `Quick test_interp_switch_semantics;
    Alcotest.test_case "interp: switch no default" `Quick test_interp_switch_no_default;
    Alcotest.test_case "interp: qsort callback" `Quick test_interp_qsort_callback;
    Alcotest.test_case "interp: strdup" `Quick test_interp_strdup;
    Alcotest.test_case "interp: calloc + math" `Quick test_interp_calloc_and_math;
    Alcotest.test_case "interp: strncpy/strcat" `Quick test_interp_strncpy_strcat;
    Alcotest.test_case "interp: atoi/putchar" `Quick test_interp_atoi_putchar;
    Alcotest.test_case "interp: unknown function" `Quick test_interp_unknown_function_traps;
    Alcotest.test_case "interp: bad IR fails when run" `Quick test_interp_bad_ir_fails_when_run;
    Alcotest.test_case "interp: operator table" `Quick test_interp_operator_table;
    Alcotest.test_case "interp: pp op without metadata traps" `Quick
      test_interp_pp_without_metadata_traps;
    Alcotest.test_case "interp: many constants" `Quick test_interp_many_constants;
    Alcotest.test_case "interp: hot loop allocates nothing" `Quick
      test_interp_hot_loop_allocates_nothing;
    Alcotest.test_case "interp: profiles" `Quick test_interp_profiles_populated;
    Alcotest.test_case "interp: profile order" `Quick test_interp_profile_order;
    Alcotest.test_case "interp: outcome size bounded" `Quick test_interp_outcome_size_bounded;
    Alcotest.test_case "interp: libc bad input traps" `Quick test_interp_libc_bad_input;
    Alcotest.test_case "attack: hooks fire" `Quick test_attack_hooks_fire_in_order;
    Alcotest.test_case "attack: writes visible" `Quick test_attack_write_visible_to_program;
    Alcotest.test_case "attack: heap allocs" `Quick test_attack_heap_allocs_listed;
    Alcotest.test_case "interp: priced = executed" `Quick test_interp_price_matches_execution;
    Alcotest.test_case "cost: scales" `Quick test_cost_model_scales;
    Alcotest.test_case "cost: with_pac" `Quick test_cost_with_pac;
  ]
