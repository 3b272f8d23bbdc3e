(* Type punning and inheritance (paper section 4.7.5), plus the replay
   soundness property: authentication of a replayed pointer succeeds
   exactly when the two slots share a PA modifier. *)

module RT = Rsti_sti.Rsti_type
module Interp = Rsti_machine.Interp
module Analysis = Rsti_sti.Analysis
module Ir = Rsti_ir.Ir

let checkb = Alcotest.(check bool)

module Pipeline = Rsti_engine.Pipeline

let build mech src =
  let a = Pipeline.(analyze (compile (source ~file:"t.c" src))) in
  (Pipeline.result (Pipeline.instrument mech a), Pipeline.analysis a)

let run_src ?attacks mech src =
  let a = Pipeline.(analyze (compile (source ~file:"t.c" src))) in
  Pipeline.run ?attacks (Pipeline.instrument mech a)

(* C++-style inheritance modelled the way the paper's prototype sees it:
   the base object embedded as the first member, upcasts as explicit
   pointer casts that LLVM renders as BitCast. *)
let inheritance_src =
  {|
extern void* malloc(long n);
extern int printf(const char *fmt, ...);
struct base {
  long id;
  void (*greet)(long id);
};
struct child {
  struct base parent;
  long extra;
};
void base_greet(long id) { printf("base %ld\n", id); }
void child_greet(long id) { printf("child %ld\n", id); }
void dispatch(struct base* obj) {
  obj->greet(obj->id);
}
int main(void) {
  struct child* c = (struct child*) malloc(sizeof(struct child));
  c->parent.id = 7;
  c->parent.greet = child_greet;
  c->extra = 99;
  /* the upcast: one BitCast in the IR (4.7.5) */
  struct base* b = (struct base*) c;
  dispatch(b);
  b->greet = base_greet;
  dispatch((struct base*) c);
  return 0;
}
|}

let test_inheritance_runs_under_all_mechanisms () =
  List.iter
    (fun mech ->
      let o = run_src mech inheritance_src in
      match o.Interp.status with
      | Interp.Exited 0L ->
          Alcotest.(check string)
            ("output under " ^ RT.mechanism_to_string mech)
            "child 7\nbase 7\n" o.Interp.output
      | s ->
          Alcotest.failf "inheritance under %s: %s" (RT.mechanism_to_string mech)
            (match s with
            | Interp.Exited n -> Printf.sprintf "exit %Ld" n
            | Interp.Trapped t -> Interp.trap_to_string t))
    (RT.all_mechanisms @ [ RT.Parts ])

let test_inheritance_vtable_attack_detected () =
  (* overwriting the embedded base's function pointer is caught by every
     mechanism: the slot is Sfield(base, greet), signed on store *)
  let atk =
    {
      Interp.trigger = Interp.On_call ("dispatch", 2);
      action =
        (fun intr ->
          intr.note "overwrite c->parent.greet";
          match intr.heap_allocs () with
          | (obj, _) :: _ -> intr.write_word (Int64.add obj 8L) (intr.func_addr "system")
          | [] -> ());
    }
  in
  List.iter
    (fun mech ->
      let o = run_src ~attacks:[ atk ] mech inheritance_src in
      checkb (RT.mechanism_to_string mech ^ " detects") true (Interp.detected o))
    RT.all_mechanisms

let test_punning_cast_recorded_and_merged () =
  let _, anal = build RT.Stc inheritance_src in
  let cls = Analysis.type_class_of anal (Rsti_minic.Ctype.Ptr (Rsti_minic.Ctype.Struct "child")) in
  checkb "base*/child* merged under STC" true (List.mem "struct base*" cls)

let test_punning_resigned_under_stwc () =
  let r, _ = build RT.Stwc inheritance_src in
  checkb "upcasts re-sign under STWC" true (r.Rsti_rsti.Instrument.counts.resigns >= 1)

(* --------------------- replay soundness property -------------------- *)

(* For generated programs: replay gptr0's stored word into another
   global's slot. Globals are typed round-robin over two structs, so
   gptr1 has the other struct type and gptr2 the same one. Under STWC and
   STC, equal modifiers must let the replay through. Otherwise the
   replayed word either is never loaded again, or fails its first
   authenticated load: one incident, at the victim's own modifier. *)
let replay_outcome mech src n_globals victim =
  let a = Pipeline.(analyze (compile (source ~file:"g.c" src))) in
  let atk =
    {
      (* fires after main's last global malloc: all globals initialised *)
      Interp.trigger = Interp.On_extern ("malloc", n_globals);
      action =
        (fun intr ->
          intr.write_word (intr.global_addr victim)
            (intr.read_word (intr.global_addr "gptr0")));
    }
  in
  Pipeline.run ~flight:1 ~attacks:[ atk ] (Pipeline.instrument mech a)

(* cases run on each side of the property, so the test can insist that
   both sides ran *)
let equal_cases = ref 0
let other_cases = ref 0

let prop_replay_soundness =
  QCheck.Test.make ~name:"replay accepted iff modifiers equal" ~count:12
    QCheck.(int_range 3000 3500)
    (fun seed ->
      let config =
        { Rsti_workloads.Generator.default with n_globals = 4; n_structs = 2 }
      in
      let src = Rsti_workloads.Generator.generate ~config ~seed:(Int64.of_int seed) () in
      let anal = Pipeline.(analysis (analyze (compile (source ~file:"g.c" src)))) in
      (* the globals' slots in variable id order: gptr0, gptr1, gptr2, ... *)
      match
        List.filter
          (fun (si : Analysis.slot_info) -> si.kind = Analysis.Kglobal)
          (Analysis.pointer_vars anal)
      with
      | g0 :: g1 :: g2 :: _ ->
          List.for_all
            (fun mech ->
              let m0 = Analysis.modifier_of anal mech g0.slot in
              List.for_all
                (fun (victim, (g : Analysis.slot_info)) ->
                  let m = Analysis.modifier_of anal mech g.slot in
                  let o = replay_outcome mech src 4 victim in
                  if m0 = m && mech <> RT.Stl then begin
                    incr equal_cases;
                    not (Interp.detected o)
                  end
                  else begin
                    incr other_cases;
                    match o.Interp.incidents with
                    | [] -> not (Interp.detected o)
                    | [ inc ] -> Interp.detected o && inc.Interp.inc_static_mod = m
                    | _ -> false
                  end)
                [ ("gptr1", g1); ("gptr2", g2) ])
            RT.all_mechanisms
      | _ -> false)

let replay_soundness_test =
  let name, speed, run = QCheck_alcotest.to_alcotest prop_replay_soundness in
  ( name,
    speed,
    fun () ->
      run ();
      checkb "equal-modifier cases ran" true (!equal_cases > 0);
      checkb "other cases ran" true (!other_cases > 0) )

let tests =
  [
    Alcotest.test_case "inheritance: runs under all mechanisms" `Quick
      test_inheritance_runs_under_all_mechanisms;
    Alcotest.test_case "inheritance: vtable attack detected" `Quick
      test_inheritance_vtable_attack_detected;
    Alcotest.test_case "punning: STC merges base*/child*" `Quick
      test_punning_cast_recorded_and_merged;
    Alcotest.test_case "punning: STWC re-signs upcasts" `Quick
      test_punning_resigned_under_stwc;
    replay_soundness_test;
  ]
