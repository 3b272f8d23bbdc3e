(* Attack-surface lint rules and gadget-graph rendering over
   Rsti_dataflow.Equiv. See attack_surface.mli. *)

module Ir = Rsti_ir.Ir
module Analysis = Rsti_sti.Analysis
module RT = Rsti_sti.Rsti_type
module Equiv = Rsti_dataflow.Equiv

let mechanisms = [ RT.Stwc; RT.Stc; RT.Stl; RT.Parts ]

let surface ?points_to ?scope anal m =
  List.map (Equiv.analyze ?points_to ?scope anal m) mechanisms

(* Slot display: prefer source names (globals from the module table,
   locals from their alloca's DIVariable) over the raw var#N form. *)
let slot_display (m : Ir.modul) =
  let names = Hashtbl.create 64 in
  List.iter
    (fun (g : Ir.global_def) ->
      Hashtbl.replace names
        ("v:" ^ string_of_int g.Ir.gvar.Rsti_minic.Tast.v_id)
        g.Ir.gvar.Rsti_minic.Tast.v_name)
    m.Ir.m_globals;
  List.iter
    (fun (fn : Ir.func) ->
      List.iter
        (fun (p : Rsti_minic.Tast.var) ->
          Hashtbl.replace names
            ("v:" ^ string_of_int p.Rsti_minic.Tast.v_id)
            (fn.Ir.name ^ "." ^ p.Rsti_minic.Tast.v_name))
        fn.Ir.params;
      Ir.iter_instrs
        (fun ins ->
          match ins.Ir.i with
          | Ir.Alloca { dv = Some dv; _ } ->
              Hashtbl.replace names
                ("v:" ^ string_of_int dv.Rsti_ir.Dinfo.dv_id)
                (fn.Ir.name ^ "." ^ dv.Rsti_ir.Dinfo.dv_name)
          | _ -> ())
        fn)
    m.Ir.m_funcs;
  fun (mb : Equiv.member) ->
    match Hashtbl.find_opt names mb.Equiv.mb_info.Analysis.key with
    | Some n -> n
    | None -> Ir.slot_to_string mb.Equiv.mb_info.Analysis.slot

let feasible_edges (c : Equiv.cls) =
  List.filter (fun (_, v) -> Equiv.feasible v) (Equiv.class_edges c)

let max_edge_findings = 16
let max_graph_edges = 64

let key_str k = Rsti_pa.Key.which_to_string k

let collision_finding display (r : Equiv.result) (c : Equiv.cls) :
    Finding.t option =
  if List.length c.Equiv.c_members < 2 then None
  else
    let members = List.map display c.Equiv.c_members in
    let edges = Equiv.class_edges c in
    let n_edges = List.length edges in
    Some
      {
        Finding.kind =
          Finding.Modifier_collision
            {
              mech = r.Equiv.r_mech;
              modifier = Printf.sprintf "0x%Lx" c.Equiv.c_modifier;
              members;
              replay_edges = n_edges;
            };
        severity = Finding.Warning;
        func = "";
        line = 0;
        message =
          Printf.sprintf
            "%d slots sign under one PA modifier (0x%Lx, key %s) under %s: %s \
             — %d replay edge%s for an arbitrary-write attacker"
            (List.length c.Equiv.c_members)
            c.Equiv.c_modifier (key_str c.Equiv.c_pa_key)
            (RT.mechanism_to_string r.Equiv.r_mech)
            (String.concat ", " members) n_edges
            (if n_edges = 1 then "" else "s");
        consequence =
          "a validly signed pointer harvested from any member authenticates \
           at any other: Table 2's substitution window, measured on the \
           modifier the hardware checks";
      }

let edge_findings display (r : Equiv.result) (c : Equiv.cls) : Finding.t list =
  let edges = feasible_edges c in
  let n = List.length edges in
  let shown = List.filteri (fun i _ -> i < max_edge_findings) edges in
  List.map
    (fun (d, v) ->
      let donor = display d and victim = display v in
      {
        Finding.kind =
          Finding.Feasible_substitution
            { mech = r.Equiv.r_mech; donor; victim };
        severity = Finding.Error;
        func = "";
        line = 0;
        message =
          Printf.sprintf
            "under %s a signed pointer harvested from %s authenticates at %s, \
             whose storage the linear-overflow attacker can reach%s"
            (RT.mechanism_to_string r.Equiv.r_mech)
            donor victim
            (if n > max_edge_findings then
               Printf.sprintf " (1 of %d feasible edges in this class)" n
             else "");
        consequence =
          "a concrete substitution gadget: the replay needs no key material \
           and survives this mechanism's modifier check";
      })
    shown

let findings (m : Ir.modul) (results : Equiv.result list) : Finding.t list =
  let display = slot_display m in
  List.concat_map
    (fun (r : Equiv.result) ->
      List.concat_map
        (fun c ->
          (match collision_finding display r c with
          | Some f -> [ f ]
          | None -> [])
          @ edge_findings display r c)
        r.Equiv.r_classes)
    results
  |> List.sort_uniq (fun a b ->
         let c = Finding.compare_finding a b in
         if c <> 0 then c else compare a b)

(* ------------------------- gadget graph JSON ------------------------- *)

let member_json display (mb : Equiv.member) =
  Json.Obj
    [
      ("slot", Json.Str (display mb));
      ("key", Json.Str mb.Equiv.mb_info.Analysis.key);
      ("signs", Json.Int mb.Equiv.mb_signs);
      ("auths", Json.Int mb.Equiv.mb_auths);
      ("writable", Json.Bool mb.Equiv.mb_writable);
      ("escapes", Json.Bool mb.Equiv.mb_escapes);
    ]

let class_json display (c : Equiv.cls) =
  let edges = Equiv.class_edges c in
  let feasible = feasible_edges c in
  let truncated = List.length edges > max_graph_edges in
  let edge_json (d, v) =
    Json.List [ Json.Str (display d); Json.Str (display v) ]
  in
  Json.Obj
    [
      ("modifier", Json.Str (Printf.sprintf "0x%Lx" c.Equiv.c_modifier));
      ("pa_key", Json.Str (key_str c.Equiv.c_pa_key));
      ("label", Json.Str c.Equiv.c_label);
      ("members", Json.List (List.map (member_json display) c.Equiv.c_members));
      ("replay_edge_count", Json.Int (List.length edges));
      ("feasible_edge_count", Json.Int (List.length feasible));
      ( "replay_edges",
        Json.List
          (List.map edge_json
             (List.filteri (fun i _ -> i < max_graph_edges) edges)) );
      ("edges_truncated", Json.Bool truncated);
    ]

let metrics_json (mt : Equiv.metrics) =
  Json.Obj
    [
      ("candidates", Json.Int mt.Equiv.m_candidates);
      ("classes", Json.Int mt.Equiv.m_classes);
      ("singletons", Json.Int mt.Equiv.m_singletons);
      ("largest_class", Json.Int mt.Equiv.m_largest);
      ( "class_size_hist",
        Json.List
          (List.map
             (fun (size, n) ->
               Json.Obj [ ("size", Json.Int size); ("classes", Json.Int n) ])
             mt.Equiv.m_hist) );
      ("replay_edges", Json.Int mt.Equiv.m_replay_edges);
      ("feasible_edges", Json.Int mt.Equiv.m_feasible_edges);
    ]

let graph_json (m : Ir.modul) (results : Equiv.result list) =
  let display = slot_display m in
  Json.Obj
    [
      ( "attack_surface",
        Json.List
          (List.map
             (fun (r : Equiv.result) ->
               Json.Obj
                 [
                   ( "mechanism",
                     Json.Str (RT.mechanism_to_string r.Equiv.r_mech) );
                   ("metrics", metrics_json r.Equiv.r_metrics);
                   ( "classes",
                     Json.List (List.map (class_json display) r.Equiv.r_classes)
                   );
                 ])
             results) );
    ]
