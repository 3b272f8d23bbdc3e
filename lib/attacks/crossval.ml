(* Static/dynamic cross-validation of the substitution attack surface:
   the Equiv partition predicts which replays survive, the machine
   decides which actually do, and any disagreement is a bug. *)

module Interp = Rsti_machine.Interp
module RT = Rsti_sti.Rsti_type
module Pipeline = Rsti_engine.Pipeline
module Equiv = Rsti_dataflow.Equiv
module Ir = Rsti_ir.Ir
module Tast = Rsti_minic.Tast
module Ctype = Rsti_minic.Ctype

let mechanisms = Rsti_staticcheck.Attack_surface.mechanisms

(* ----------------------------------------------------------------- *)
(* Catalog: the hand-written scenarios of Substitution.expected.      *)
(* ----------------------------------------------------------------- *)

type catalog_row = {
  cr_scenario : string;
  cr_mech : RT.mechanism;
  cr_static : bool;
  cr_dynamic : Scenario.verdict;
  cr_agree : bool;
}

(* Scenario metadata names pointers as e.g. "banner (const char*)"; the
   global's name is the first whitespace-delimited token. *)
let first_token s =
  match String.index_opt s ' ' with
  | Some i -> String.sub s 0 i
  | None -> s

let find_global (m : Ir.modul) name =
  match
    List.find_map
      (fun (g : Ir.global_def) ->
        let v = g.Ir.gvar in
        if v.Tast.v_name = name then Some (Ir.Svar v.Tast.v_id) else None)
      m.Ir.m_globals
  with
  | Some s -> s
  | None -> invalid_arg (Printf.sprintf "Crossval: no global named %s" name)

let analyzed_scenario config (sc : Scenario.t) =
  Pipeline.analyze ~config
    (Pipeline.compile ~config
       (Pipeline.source ~file:(sc.Scenario.id ^ ".c") sc.Scenario.program))

let catalog () =
  let config = Pipeline.default in
  List.concat_map
    (fun ((sc : Scenario.t), expectations) ->
      let a = analyzed_scenario config sc in
      let m = Pipeline.analyzed_ir a in
      let donor = find_global m (first_token sc.Scenario.target) in
      let victim = find_global m (first_token sc.Scenario.corrupted) in
      List.map
        (fun (mech, _expected) ->
          let eq = Pipeline.attack_surface ~config mech a in
          let static = Equiv.replayable eq ~donor ~victim in
          let dynamic = (Scenario.run sc mech).Scenario.verdict in
          (* Attack_failed matches neither model and counts as a
             disagreement: a fizzled replay means the oracle setup broke. *)
          let agree =
            match dynamic with
            | Scenario.Attack_succeeded -> static
            | Scenario.Detected -> not static
            | Scenario.Attack_failed -> false
          in
          {
            cr_scenario = sc.Scenario.id;
            cr_mech = mech;
            cr_static = static;
            cr_dynamic = dynamic;
            cr_agree = agree;
          })
        expectations)
    Substitution.expected

(* ----------------------------------------------------------------- *)
(* Generated candidates: fresh replays from the analyzer's own classes *)
(* ----------------------------------------------------------------- *)

type gen_kind = Same_class | Cross_class

type gen_row = {
  g_program : string;
  g_mech : RT.mechanism;
  g_donor : string;
  g_victim : string;
  g_trigger : string;
  g_kind : gen_kind;
  g_predicted : bool;
  g_detected : bool option;
  g_agree : bool option;
}

type gen_batch = { gb_rows : gen_row list; gb_pool_same : int; gb_pool_cross : int }

let skip_note = "crossval: donor cell empty, replay skipped"

(* Candidate victims: (name, slot, func) for every global pointer with a
   load in [func]'s entry block that no same-block store precedes — so
   entering [func] authenticates whatever the global holds, and firing
   the replay at that entry guarantees the check actually runs. *)
let entry_victims (m : Ir.modul) =
  let globals = Hashtbl.create 16 in
  List.iter
    (fun (g : Ir.global_def) ->
      let v = g.Ir.gvar in
      if Ctype.is_pointer v.Tast.v_ty then
        Hashtbl.replace globals v.Tast.v_id v.Tast.v_name)
    m.Ir.m_globals;
  List.concat_map
    (fun (fn : Ir.func) ->
      if fn.Ir.name = Ir.global_init_name || Array.length fn.Ir.blocks = 0 then
        []
      else begin
        let stored = Hashtbl.create 4 in
        let seen = Hashtbl.create 4 in
        let acc = ref [] in
        List.iter
          (fun (ins : Ir.instr) ->
            match ins.Ir.i with
            | Ir.Store { slot = Ir.Svar id; _ } -> Hashtbl.replace stored id ()
            | Ir.Load { slot = Ir.Svar id; ty; _ }
              when Ctype.is_pointer ty
                   && Hashtbl.mem globals id
                   && (not (Hashtbl.mem stored id))
                   && not (Hashtbl.mem seen id) ->
                Hashtbl.replace seen id ();
                acc := (Hashtbl.find globals id, Ir.Svar id, fn.Ir.name) :: !acc
            | _ -> ())
          fn.Ir.blocks.(0).Ir.instrs;
        List.rev !acc
      end)
    m.Ir.m_funcs

(* One (donor, victim) pair per row; victims loaded outside [main]
   first so the donor has normally been signed by trigger time. *)
let dedupe_pairs pool =
  let seen = Hashtbl.create 8 in
  List.filter
    (fun (dn, _, vn, _, _) ->
      if Hashtbl.mem seen (dn, vn) then false
      else begin
        Hashtbl.replace seen (dn, vn) ();
        true
      end)
    pool

let take n l = List.filteri (fun i _ -> i < n) l

let generated ~name ~source mech =
  let config = Pipeline.default in
  let compiled =
    Pipeline.compile ~config (Pipeline.source ~file:(name ^ ".c") source)
  in
  let a = Pipeline.analyze ~config compiled in
  let m = Pipeline.analyzed_ir a in
  let eq = Pipeline.attack_surface ~config mech a in
  let calls = (Pipeline.run_baseline ~config compiled).Interp.call_profile in
  let victims =
    entry_victims m
    |> List.filter (fun (_, _, fv) -> List.mem_assoc fv calls)
    |> List.sort (fun (n1, _, f1) (n2, _, f2) ->
           match (f1 = "main", f2 = "main") with
           | false, true -> -1
           | true, false -> 1
           | _ -> compare (n1, f1) (n2, f2))
  in
  (* Donors must be signed somewhere or there is nothing to harvest. *)
  let donors =
    List.filter_map
      (fun (g : Ir.global_def) ->
        let v = g.Ir.gvar in
        match Equiv.find_member eq (Ir.Svar v.Tast.v_id) with
        | Some (_, mb) when mb.Equiv.mb_signs > 0 ->
            Some (v.Tast.v_name, Ir.Svar v.Tast.v_id)
        | _ -> None)
      m.Ir.m_globals
    |> List.sort compare
  in
  let pairs pred =
    List.concat_map
      (fun (vn, vs, fv) ->
        List.filter_map
          (fun (dn, ds) ->
            if dn = vn then None
            else if pred (Equiv.replayable eq ~donor:ds ~victim:vs) then
              Some (dn, ds, vn, vs, fv)
            else None)
          donors)
      victims
    |> dedupe_pairs
  in
  let same_pool = pairs Fun.id in
  let cross_pool = pairs not in
  let run_candidate kind predicted (dn, _ds, vn, _vs, fv) =
    let n = List.assoc fv calls in
    let fired = ref false in
    let attack =
      {
        Interp.trigger = Interp.On_call (fv, n);
        action =
          (fun intr ->
            let w = intr.Interp.read_word (intr.Interp.global_addr dn) in
            if w = 0L then intr.Interp.note skip_note
            else begin
              fired := true;
              intr.Interp.note
                (Printf.sprintf "crossval: replay signed %s over %s at %s#%d"
                   dn vn fv n);
              intr.Interp.write_word (intr.Interp.global_addr vn) w
            end);
      }
    in
    let outcome =
      Pipeline.run ~config ~attacks:[ attack ]
        (Pipeline.instrument ~config mech a)
    in
    let detected = if !fired then Some (Interp.detected outcome) else None in
    {
      g_program = name;
      g_mech = mech;
      g_donor = dn;
      g_victim = vn;
      g_trigger = fv;
      g_kind = kind;
      g_predicted = predicted;
      g_detected = detected;
      g_agree = Option.map (fun d -> d = not predicted) detected;
    }
  in
  {
    gb_rows =
      List.map (run_candidate Same_class true) (take 2 same_pool)
      @ List.map (run_candidate Cross_class false) (take 1 cross_pool);
    gb_pool_same = List.length same_pool;
    gb_pool_cross = List.length cross_pool;
  }

(* ----------------------------------------------------------------- *)
(* The full summary                                                   *)
(* ----------------------------------------------------------------- *)

type summary = {
  s_catalog : catalog_row list;
  s_generated : gen_row list;
  s_checked : int;
  s_disagreements : int;
  s_skipped : int;
  s_pool_same : int;
  s_pool_cross : int;
}

(* Hand-written crossval victims beyond the catalog: a size-3 class (six
   replay edges), a cast-merged trio (STC coarsens, STWC does not), and a
   scope-split pair (PARTS merges, every RSTI mechanism splits). Each
   global pointer is loaded in the entry block of a helper so generated
   triggers always reach an authentication. *)
let corpus =
  [
    ( "xv-triple",
      {|
extern void* malloc(long n);
extern int printf(const char *fmt, ...);
extern char* strcpy(char* dst, const char* src);
/* three pointers in one RSTI class, a fourth in its own */
char* red;
char* green;
char* blue;
long* counter;
void paint(int round) {
  printf("%d: %s %s %s\n", round, red, green, blue);
}
void tally(void) {
  printf("count %d\n", (int) *counter);
}
int main(void) {
  red = (char*) malloc(8);
  green = (char*) malloc(8);
  blue = (char*) malloc(8);
  counter = (long*) malloc(8);
  strcpy(red, "r");
  strcpy(green, "g");
  strcpy(blue, "b");
  *counter = 7;
  paint(1);
  tally();
  paint(2);
  tally();
  return 0;
}
|} );
    ( "xv-cast",
      {|
extern void* malloc(long n);
extern int printf(const char *fmt, ...);
struct buf { int len; };
/* primary/backup share an RSTI-type; spare joins them only under the
   STC cast-merge */
struct buf* primary;
void* spare;
struct buf* backup;
void touch(int round) {
  struct buf* b;
  printf("primary %d\n", primary->len);
  b = (struct buf*) spare;
  printf("spare %d round %d\n", b->len, round);
  printf("backup %d\n", backup->len);
}
int main(void) {
  struct buf* t;
  primary = (struct buf*) malloc(16);
  backup = (struct buf*) malloc(16);
  spare = malloc(16);
  primary->len = 1;
  backup->len = 2;
  t = (struct buf*) spare;
  t->len = 3;
  touch(1);
  touch(2);
  return 0;
}
|} );
    ( "xv-scope",
      {|
extern void* malloc(long n);
extern int printf(const char *fmt, ...);
extern char* strcpy(char* dst, const char* src);
/* same basic type, disjoint scopes: PARTS merges, RSTI splits */
char* log_line;
char* cmd_line;
void logit(int round) {
  printf("log %d: %s\n", round, log_line);
}
void execit(int round) {
  printf("cmd %d: %s\n", round, cmd_line);
}
int main(void) {
  log_line = (char*) malloc(16);
  cmd_line = (char*) malloc(16);
  strcpy(log_line, "l");
  strcpy(cmd_line, "c");
  logit(1);
  execit(1);
  logit(2);
  execit(2);
  return 0;
}
|} );
  ]

let default_programs () =
  List.map
    (fun (sc : Scenario.t) -> (sc.Scenario.id, sc.Scenario.program))
    Substitution.all
  @ corpus

let summarize ?programs () =
  let programs =
    match programs with Some p -> p | None -> default_programs ()
  in
  let cat = catalog () in
  let batches =
    Rsti_engine.Scheduler.map
      (fun (name, source) ->
        List.map (fun mech -> generated ~name ~source mech) mechanisms)
      programs
    |> List.concat
  in
  let gens = List.concat_map (fun b -> b.gb_rows) batches in
  let skipped =
    List.length (List.filter (fun g -> g.g_agree = None) gens)
  in
  let checked = List.length cat + List.length gens - skipped in
  let disagreements =
    List.length (List.filter (fun c -> not c.cr_agree) cat)
    + List.length (List.filter (fun g -> g.g_agree = Some false) gens)
  in
  {
    s_catalog = cat;
    s_generated = gens;
    s_checked = checked;
    s_disagreements = disagreements;
    s_skipped = skipped;
    s_pool_same = List.fold_left (fun n b -> n + b.gb_pool_same) 0 batches;
    s_pool_cross = List.fold_left (fun n b -> n + b.gb_pool_cross) 0 batches;
  }

let summary_json s =
  let module J = Rsti_util.Json in
  J.Obj
    [
      ("checks", J.Int s.s_checked);
      ("disagreements", J.Int s.s_disagreements);
      ("skipped", J.Int s.s_skipped);
    ]
