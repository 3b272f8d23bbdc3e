(* Tests for the STI analysis: scopes, RSTI-types, permissions,
   field-sensitivity, type-class merging, equivalence classes, the
   pointer-to-pointer census, and modifier derivation. *)

module Analysis = Rsti_sti.Analysis
module RT = Rsti_sti.Rsti_type
module Ir = Rsti_ir.Ir
module Ctype = Rsti_minic.Ctype

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

module Pipeline = Rsti_engine.Pipeline

let analyze src =
  Pipeline.(analysis (analyze (compile (source ~file:"t.c" src))))

(* Figure 5's program. *)
let fig5 =
  {|
extern void* malloc(long n);
typedef struct { void (*send_file)(long x); } ctx;
void do_send(long x) { }
void foo(ctx* c) { c->send_file(1); }
void bar(ctx* c) { c->send_file(2); }
void foo2(void* v_ctx) {
  foo((ctx*) v_ctx);
  bar((ctx*) v_ctx);
}
int main(void) {
  ctx* c = (ctx*) malloc(sizeof(ctx));
  c->send_file = do_send;
  const void* v_const = malloc(sizeof(long));
  foo2((void*) c);
  return v_const ? 0 : 1;
}
|}

(* Figure 6's program. *)
let fig6 =
  {|
extern void* malloc(long n);
extern int printf(const char *fmt, ...);
int hello_func(void) { printf("Hello!"); return 0; }
struct node {
  int key;
  int (*fp)(void);
  struct node *next;
};
int main(void) {
  struct node* ptr = (struct node*) malloc(sizeof(struct node));
  ptr->fp = hello_func;
  return ptr->fp();
}
|}

let var_named anal name =
  match
    List.find_opt
      (fun (si : Analysis.slot_info) ->
        match si.slot with
        | Ir.Svar _ -> si.decl_func <> None || si.kind = Analysis.Kglobal
        | _ -> false)
      (List.filter
         (fun (si : Analysis.slot_info) ->
           match si.slot with Ir.Svar _ -> true | _ -> false)
         (Analysis.pointer_vars anal))
  with
  | Some _ ->
      (* resolve by matching scope strings is brittle; find via key *)
      List.find
        (fun (si : Analysis.slot_info) ->
          match si.slot with Ir.Svar _ -> si.key <> "" && name = name | _ -> false)
        (Analysis.pointer_vars anal)
  | None -> Alcotest.fail "no vars"

let _ = var_named

(* ------------------------ Figure 5 semantics ----------------------- *)

let test_fig5_ctx_scope_widened () =
  let anal = analyze fig5 in
  (* the ctx* class must be scoped over main, foo, bar, foo2 *)
  let vars = Analysis.pointer_vars anal in
  let ctx_var =
    List.find
      (fun (si : Analysis.slot_info) ->
        Ctype.to_string (Ctype.strip_all_quals si.sty) = "struct ctx*"
        && si.kind <> Analysis.Kfield "ctx")
      vars
  in
  let rt = Analysis.rsti_of anal RT.Stwc ctx_var.slot in
  List.iter
    (fun f -> checkb ("scope has " ^ f) true (List.mem f rt.RT.rt_scope))
    [ "main"; "foo"; "bar"; "foo2" ]

let test_fig5_const_permission_distinct () =
  let anal = analyze fig5 in
  let vars = Analysis.pointer_vars anal in
  let v_const =
    List.find (fun (si : Analysis.slot_info) -> si.read_only) vars
  in
  let rt = Analysis.rsti_of anal RT.Stwc v_const.slot in
  checkb "read-only RSTI-type" true rt.RT.rt_read_only

let test_fig5_stc_merges_ctx_void () =
  let anal = analyze fig5 in
  let cls = Analysis.type_class_of anal (Ctype.Ptr (Ctype.Struct "ctx")) in
  checkb "void* in ctx* class" true (List.mem "void*" cls);
  checkb "ctx* in class" true (List.mem "struct ctx*" cls)

let test_fig5_stwc_does_not_merge () =
  let anal = analyze fig5 in
  let vars = Analysis.pointer_vars anal in
  List.iter
    (fun (si : Analysis.slot_info) ->
      let rt = Analysis.rsti_of anal RT.Stwc si.slot in
      checki "STWC: single type per RSTI-type" 1 (List.length rt.RT.rt_types))
    vars

let test_fig5_casts_recorded () =
  let anal = analyze fig5 in
  let casts = Analysis.casts anal in
  checkb "void*->ctx* in foo2" true
    (List.exists (fun (f, a, b) -> f = "foo2" && a = "void*" && b = "struct ctx*") casts);
  checkb "ctx*->void* in main" true
    (List.exists (fun (f, a, b) -> f = "main" && a = "struct ctx*" && b = "void*") casts)

(* ------------------------ Figure 6 semantics ----------------------- *)

let test_fig6_field_scope_includes_struct () =
  let anal = analyze fig6 in
  let rt = Analysis.rsti_of anal RT.Stwc (Ir.Sfield ("node", "fp")) in
  checkb "struct node in fp's scope" true (List.mem "struct node" rt.RT.rt_scope);
  checkb "main in fp's scope" true (List.mem "main" rt.RT.rt_scope)

let test_fig6_code_pointer_key () =
  Alcotest.(check string)
    "fp uses IA" "ia"
    (Rsti_pa.Key.which_to_string
       (Analysis.key_for
          (Ctype.Ptr (Ctype.Func { ret = Ctype.Int; params = []; variadic = false }))));
  Alcotest.(check string)
    "data ptr uses DA" "da"
    (Rsti_pa.Key.which_to_string (Analysis.key_for (Ctype.Ptr Ctype.Long)))

(* --------------------------- modifiers ------------------------------ *)

let test_modifiers_deterministic () =
  let a1 = analyze fig6 and a2 = analyze fig6 in
  Alcotest.check Alcotest.int64 "stable modifier"
    (Analysis.modifier_of a1 RT.Stwc (Ir.Sfield ("node", "fp")))
    (Analysis.modifier_of a2 RT.Stwc (Ir.Sfield ("node", "fp")))

let test_modifiers_distinct_fields () =
  let anal = analyze fig6 in
  checkb "fp and next differ" true
    (Analysis.modifier_of anal RT.Stwc (Ir.Sfield ("node", "fp"))
    <> Analysis.modifier_of anal RT.Stwc (Ir.Sfield ("node", "next")))

let test_parts_modifier_type_only () =
  let anal = analyze fig5 in
  (* PARTS: every slot of the same basic type shares one modifier *)
  let vars =
    List.filter
      (fun (si : Analysis.slot_info) ->
        Ctype.to_string (Ctype.strip_all_quals si.sty) = "void*")
      (Analysis.pointer_vars anal)
  in
  checkb "at least two void* vars" true (List.length vars >= 2);
  let mods =
    List.sort_uniq compare
      (List.map (fun (si : Analysis.slot_info) ->
           Analysis.modifier_of anal RT.Parts si.slot) vars)
  in
  checki "one PARTS modifier" 1 (List.length mods)

let test_rsti_type_to_string_injective_cases () =
  let a = RT.make ~types:[ "int*" ] ~scope:[ "f" ] ~read_only:false in
  let b = RT.make ~types:[ "int*" ] ~scope:[ "g" ] ~read_only:false in
  let c = RT.make ~types:[ "int*" ] ~scope:[ "f" ] ~read_only:true in
  checkb "scope changes modifier" true (RT.modifier a <> RT.modifier b);
  checkb "permission changes modifier" true (RT.modifier a <> RT.modifier c)

let test_rsti_type_canonicalisation () =
  let a = RT.make ~types:[ "b"; "a"; "a" ] ~scope:[ "z"; "y" ] ~read_only:false in
  let b = RT.make ~types:[ "a"; "b" ] ~scope:[ "y"; "z"; "z" ] ~read_only:false in
  checkb "order-insensitive" true (RT.equal a b && RT.modifier a = RT.modifier b)

(* --------------------------- statistics ----------------------------- *)

let stats_invariants (s : Analysis.stats) =
  (* RT orderings and NT <= RT hold empirically on real programs (the
     paper's Table 3) but are not structural for per-component merging;
     only the structural invariants are asserted here. The perf suite
     checks the empirical ones on the SPEC kernels. *)
  checkb "RT(STWC) <= NV" true (s.rt_stwc <= s.nv);
  checki "ECT(STWC) = 1" 1 s.largest_ect_stwc;
  checkb "ECT(STC) >= 1" true (s.largest_ect_stc >= 1)

let test_stats_invariants_fig5 () = stats_invariants (Analysis.stats (analyze fig5))

let prop_stats_invariants_generated =
  QCheck.Test.make ~name:"Table-3 invariants on generated programs" ~count:15
    QCheck.(int_range 1 500)
    (fun seed ->
      let src = Rsti_workloads.Generator.generate ~seed:(Int64.of_int seed) () in
      let s = Analysis.stats (analyze src) in
      s.rt_stwc <= s.nv
      && s.largest_ect_stwc = 1
      && s.largest_ecv_stwc <= s.largest_ecv_stc)

(* ------------------------- component index -------------------------- *)

(* A fresh analysis, not the engine's cached one: these tests create
   slots on demand, which must not leak into analyses other tests share. *)
let fresh_analysis src =
  Analysis.analyze Pipeline.(ir (compile (source ~file:"t.c" src)))

let keys = List.map (fun (si : Analysis.slot_info) -> si.key)

let test_index_on_demand_anon_slot () =
  let anal = fresh_analysis fig5 in
  let own = Analysis.pointer_vars anal in
  let members_of (si : Analysis.slot_info) =
    keys (Analysis.component_of_slot anal si.slot)
  in
  let before = List.map members_of own in
  (* fig5 accesses no memory cell of type long** *)
  let slot = Ir.Sanon (Ctype.Ptr (Ctype.Ptr Ctype.Long)) in
  checki "not a module slot" 0 (List.length (Analysis.component_of_slot anal slot));
  let si = Analysis.slot_info anal slot in
  Alcotest.(check (list string))
    "the on-demand slot is its own component" [ si.key ]
    (keys (Analysis.component_of_slot anal slot));
  Alcotest.(check (list (list string)))
    "module slots keep their members" before (List.map members_of own)

(* [a:char*] asked for as [const char*] and as [char*]: a cast chain
   through [void*] under STWC (cast re-signs) and dop-proftpd's
   [pr_response_send_raw(const char* )] under STL (argument re-sign). On
   fresh analyses, the slot's modifier is the same whichever form is
   asked first, before or after instrumenting, and instrumenting after
   asking either form first emits the same module. *)
let const_cast_chain =
  {|
extern void* malloc(long n);
int main(void) {
  const char *s = (const char *) malloc(4);
  void *v = (void *) s;
  char *t = (char *) v;
  return 0;
}
|}

let test_anon_permission_order_free () =
  let const_form = Ir.Sanon (Ctype.Ptr (Ctype.Const Ctype.Char))
  and plain_form = Ir.Sanon (Ctype.Ptr Ctype.Char) in
  List.iter
    (fun (name, src, mech) ->
      let m = Pipeline.(ir (compile (source ~file:"t.c" src))) in
      let instrument a = (Rsti_rsti.Instrument.instrument mech a m).Rsti_rsti.Instrument.modul in
      let ask ~instrumented order =
        let a = Analysis.analyze m in
        if instrumented then ignore (instrument a);
        List.map
          (fun s ->
            ((Analysis.slot_info a s).Analysis.read_only, Analysis.modifier_of a mech s))
          order
      in
      let expected = List.hd (ask ~instrumented:false [ plain_form ]) in
      checkb (name ^ ": R/W") false (fst expected);
      List.iter
        (fun instrumented ->
          List.iter
            (fun order ->
              checkb
                (Printf.sprintf "%s: same modifier (%s first, instrumented=%b)" name
                   (Ir.slot_to_string (List.hd order)) instrumented)
                true
                (List.for_all (( = ) expected) (ask ~instrumented order)))
            [ [ const_form; plain_form ]; [ plain_form; const_form ] ])
        [ false; true ];
      let instrumented_after first =
        let a = Analysis.analyze m in
        ignore (Analysis.modifier_of a mech first);
        Ir.modul_to_string (instrument a)
      in
      Alcotest.(check string) (name ^ ": instrumented module")
        (instrumented_after plain_form) (instrumented_after const_form))
    [
      ("cast chain", const_cast_chain, RT.Stwc);
      ("dop-proftpd", Rsti_attacks.Catalog.dop_proftpd.Rsti_attacks.Scenario.program, RT.Stl);
    ]

(* The slots the instrumenter asks modifiers for, in program order: each
   pointer access's slot, and the anonymous slots of each pointer cast's
   two types (created on demand when the module never dereferences them). *)
let queried_slots (m : Ir.modul) =
  let seen = Hashtbl.create 64 and out = ref [] in
  let add s =
    let k = Analysis.slot_key s in
    if not (Hashtbl.mem seen k) then begin
      Hashtbl.replace seen k ();
      out := s :: !out
    end
  in
  List.iter
    (Ir.iter_instrs (fun ins ->
         match ins.Ir.i with
         | Ir.Load { slot; ty; _ } | Ir.Store { slot; ty; _ } when Ctype.is_pointer ty ->
             add slot
         | Ir.Bitcast { from_ty; to_ty; _ }
           when Ctype.is_pointer from_ty && Ctype.is_pointer to_ty ->
             add (Ir.Sanon from_ty);
             add (Ir.Sanon to_ty)
         | _ -> ()))
    m.Ir.m_funcs;
  List.rev !out

let prop_index_matches_scan =
  QCheck.Test.make ~name:"component index: equals the scan, order-free modifiers"
    ~count:10 QCheck.(int_range 1 1000)
    (fun seed ->
      let src = Rsti_workloads.Generator.generate ~seed:(Int64.of_int seed) () in
      let m = Pipeline.(ir (compile (source ~file:"t.c" src))) in
      let anal = Analysis.analyze m in
      let vars = Analysis.pointer_vars anal in
      let is_var k = List.exists (fun (u : Analysis.slot_info) -> u.key = k) vars in
      let members_match (v : Analysis.slot_info) =
        let root = Analysis.component_of anal v.slot in
        List.filter is_var (keys (Analysis.component_of_slot anal v.slot))
        = keys
            (List.filter
               (fun (u : Analysis.slot_info) -> Analysis.component_of anal u.slot = root)
               vars)
      in
      let slots = queried_slots m in
      let modifiers order =
        let a = Analysis.analyze m in
        let tbl = Hashtbl.create 64 in
        List.iter
          (fun s ->
            Hashtbl.replace tbl (Analysis.slot_key s)
              (List.map
                 (fun mech -> Analysis.modifier_of a mech s)
                 [ RT.Stwc; RT.Stc; RT.Stl; RT.Parts ]))
          order;
        List.map (fun s -> Hashtbl.find tbl (Analysis.slot_key s)) slots
      in
      List.for_all members_match vars
      && modifiers slots = modifiers (List.rev slots))

(* ------------------------------ census ------------------------------ *)

let pp_src =
  {|
extern void* malloc(long n);
struct node { long key; struct node* next; };
void by_type(struct node** pp) { if (*pp) { } }
void erased(void** pp) { if (*pp) { } }
int main(void) {
  struct node* p = (struct node*) malloc(sizeof(struct node));
  by_type(&p);
  erased((void**) &p);
  return 0;
}
|}

let test_pp_census_counts () =
  let anal = analyze pp_src in
  let c = Analysis.pp_census anal in
  checkb "several pp sites" true (c.pp_total_sites >= 2);
  checki "one type-loss site" 1 (List.length c.pp_special);
  match c.pp_special with
  | [ (func, ty) ] ->
      Alcotest.(check string) "site in main" "main" func;
      Alcotest.(check string) "original type" "struct node**" (Ctype.to_string ty)
  | _ -> Alcotest.fail "census shape"

let test_ce_table_assignment () =
  let anal = analyze pp_src in
  match Analysis.ce_table anal with
  | [ (ty, ce, fe) ] ->
      Alcotest.(check string) "FE type" "struct node**" (Ctype.to_string ty);
      checkb "CE in 1..255" true (ce >= 1 && ce <= 255);
      checkb "FE modifier nonzero" true (fe <> 0L)
  | l -> Alcotest.failf "expected 1 CE entry, got %d" (List.length l)

let test_no_pp_census_for_typed_passing () =
  let anal =
    analyze
      "extern void* malloc(long n);\nstruct n { long k; };\n\
       void f(struct n** pp) { if (*pp) { } }\n\
       int main(void) { struct n* p = (struct n*) malloc(8); f(&p); return 0; }"
  in
  checki "no type-loss site" 0 (List.length (Analysis.pp_census anal).pp_special)

(* ------------------------- escape analysis -------------------------- *)

let test_address_taken_local () =
  let anal =
    analyze
      "void touch(long* p) { *p = 1; }\n\
       int main(void) { long x = 0; long y = 0; touch(&x); return (int)(x + y); }"
  in
  (* exactly one of the two locals escapes *)
  let escaped =
    List.filter
      (fun (si : Analysis.slot_info) ->
        match si.slot with
        | Ir.Svar id -> Analysis.address_taken anal id
        | _ -> false)
      (Analysis.pointer_vars anal)
  in
  ignore escaped;
  (* x is a long (not a pointer var) — verify via the raw API instead:
     find var ids by probing both; at least one id is address-taken *)
  checkb "some local escaped" true
    (let any = ref false in
     for id = 0 to 10 do
       if Analysis.address_taken anal id then any := true
     done;
     !any)

let test_alias_consistency_through_double_pointer () =
  (* signing through the variable and authenticating through *pp must
     agree: the program runs cleanly under every mechanism *)
  let src =
    "extern void* malloc(long n);\n\
     struct n { long k; };\n\
     void set(struct n** pp) { (*pp)->k = 5; }\n\
     int main(void) { struct n* p = (struct n*) malloc(8); set(&p);\n\
     return (int) p->k; }"
  in
  List.iter
    (fun mech ->
      let a = Pipeline.(analyze (compile (source ~file:"t.c" src))) in
      match (Pipeline.run (Pipeline.instrument mech a)).status with
      | Rsti_machine.Interp.Exited 5L -> ()
      | s ->
          Alcotest.failf "alias run under %s: %s" (RT.mechanism_to_string mech)
            (match s with
            | Rsti_machine.Interp.Exited n -> Printf.sprintf "exit %Ld" n
            | Rsti_machine.Interp.Trapped t -> Rsti_machine.Interp.trap_to_string t))
    RT.all_mechanisms

let tests =
  [
    Alcotest.test_case "fig5: ctx scope widened" `Quick test_fig5_ctx_scope_widened;
    Alcotest.test_case "fig5: const permission" `Quick test_fig5_const_permission_distinct;
    Alcotest.test_case "fig5: STC merges" `Quick test_fig5_stc_merges_ctx_void;
    Alcotest.test_case "fig5: STWC keeps types apart" `Quick test_fig5_stwc_does_not_merge;
    Alcotest.test_case "fig5: casts recorded" `Quick test_fig5_casts_recorded;
    Alcotest.test_case "fig6: field scope" `Quick test_fig6_field_scope_includes_struct;
    Alcotest.test_case "fig6: IA/DA keys" `Quick test_fig6_code_pointer_key;
    Alcotest.test_case "modifiers: deterministic" `Quick test_modifiers_deterministic;
    Alcotest.test_case "modifiers: fields distinct" `Quick test_modifiers_distinct_fields;
    Alcotest.test_case "modifiers: PARTS type-only" `Quick test_parts_modifier_type_only;
    Alcotest.test_case "rsti-type: modifier sensitivity" `Quick test_rsti_type_to_string_injective_cases;
    Alcotest.test_case "rsti-type: canonicalisation" `Quick test_rsti_type_canonicalisation;
    Alcotest.test_case "stats: fig5 invariants" `Quick test_stats_invariants_fig5;
    Alcotest.test_case "census: pp counts" `Quick test_pp_census_counts;
    Alcotest.test_case "census: CE table" `Quick test_ce_table_assignment;
    Alcotest.test_case "census: typed passing free" `Quick test_no_pp_census_for_typed_passing;
    Alcotest.test_case "escape: address taken" `Quick test_address_taken_local;
    Alcotest.test_case "escape: alias consistency" `Quick test_alias_consistency_through_double_pointer;
    QCheck_alcotest.to_alcotest prop_stats_invariants_generated;
    Alcotest.test_case "index: on-demand anon slot" `Quick test_index_on_demand_anon_slot;
    Alcotest.test_case "anon slot: permission independent of query order" `Quick
      test_anon_permission_order_free;
    QCheck_alcotest.to_alcotest prop_index_matches_scan;
  ]
