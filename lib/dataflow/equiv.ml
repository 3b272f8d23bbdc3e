(* Static substitution-attack-surface analysis: partition the
   instrumented-slot population into modifier-collision equivalence
   classes and count the replay gadget edges each mechanism leaves open.
   See equiv.mli for the two attacker tiers. *)

module Ir = Rsti_ir.Ir
module Analysis = Rsti_sti.Analysis
module RT = Rsti_sti.Rsti_type

type member = {
  mb_info : Analysis.slot_info;
  mb_signs : int;
  mb_auths : int;
  mb_auth_funcs : string list;
  mb_writable : bool;
  mb_escapes : bool;
  mb_reach : string list option;
}

type cls = {
  c_modifier : int64;
  c_pa_key : Rsti_pa.Key.which;
  c_label : string;
  c_members : member list;
}

type metrics = {
  m_candidates : int;
  m_classes : int;
  m_singletons : int;
  m_largest : int;
  m_hist : (int * int) list;
  m_replay_edges : int;
  m_feasible_edges : int;
}

type result = {
  r_mech : RT.mechanism;
  r_classes : cls list;
  r_metrics : metrics;
}

let is_stack (si : Analysis.slot_info) =
  match si.kind with
  | Analysis.Klocal | Analysis.Kparam -> true
  | Analysis.Kglobal | Analysis.Kfield _ | Analysis.Kanon -> false

(* The victim side of a feasible gadget edge: the confined attacker can
   write the victim's storage and, for a stack victim, reach it through
   an address that outlives the frame. *)
let feasible v = v.mb_writable && ((not (is_stack v.mb_info)) || v.mb_escapes)

(* ----------------------------------------------------------------- *)
(* Partition                                                           *)
(* ----------------------------------------------------------------- *)

(* Class identity: PA key + modifier constant, plus — under STL, whose
   runtime modifier XORs in the storage address — the slot key itself,
   making every class a distinct storage location. *)
let class_key anal mech (si : Analysis.slot_info) =
  let modifier = Analysis.modifier_of anal mech si.Analysis.slot in
  let pa_key = Analysis.key_for si.Analysis.sty in
  let loc = if mech = RT.Stl then Some si.Analysis.key else None in
  (modifier, pa_key, loc)

type acc = {
  a_si : Analysis.slot_info;
  mutable a_signs : int;
  mutable a_auths : int;
  a_funcs : (string, unit) Hashtbl.t;
}

let analyze ?points_to ?scope anal (m : Ir.modul) mech : result =
  let empty =
    {
      r_mech = mech;
      r_classes = [];
      r_metrics =
        {
          m_candidates = 0;
          m_classes = 0;
          m_singletons = 0;
          m_largest = 0;
          m_hist = [];
          m_replay_edges = 0;
          m_feasible_edges = 0;
        };
    }
  in
  if mech = RT.Nop then empty
  else begin
    (* 1. Collect the instrumented population with per-slot sign/auth
       site counts — exactly what the rewriter would instrument. *)
    let slots : (string, acc) Hashtbl.t = Hashtbl.create 64 in
    let order = ref [] in
    let touch slot fname ~sign =
      let si = Analysis.slot_info anal slot in
      let a =
        match Hashtbl.find_opt slots si.Analysis.key with
        | Some a -> a
        | None ->
            let a =
              { a_si = si; a_signs = 0; a_auths = 0; a_funcs = Hashtbl.create 4 }
            in
            Hashtbl.replace slots si.Analysis.key a;
            order := si.Analysis.key :: !order;
            a
      in
      if sign then a.a_signs <- a.a_signs + 1
      else begin
        a.a_auths <- a.a_auths + 1;
        Hashtbl.replace a.a_funcs fname ()
      end
    in
    List.iter
      (fun (fn : Ir.func) ->
        Ir.iter_instrs
          (fun ins ->
            match ins.Ir.i with
            | Ir.Load { ty; slot; _ }
              when Analysis.instrument_candidate anal mech ty slot ->
                touch slot fn.Ir.name ~sign:false
            | Ir.Store { ty; slot; _ }
              when Analysis.instrument_candidate anal mech ty slot ->
                touch slot fn.Ir.name ~sign:true
            | _ -> ())
          fn)
      m.Ir.m_funcs;
    (* 2. Attacker-model refinements. *)
    let conf = Option.map Points_to.confinement points_to in
    (* donor liveness: the functions whose activations can overlap a
       stack slot's lifetime *)
    let cg = Callgraph.of_modul m in
    let member_of (a : acc) =
      let si = a.a_si in
      let auth_funcs =
        List.sort compare (Hashtbl.fold (fun f () l -> f :: l) a.a_funcs [])
      in
      let writable =
        match conf with
        | None -> true
        | Some c -> not (Points_to.confined_slot c si.Analysis.slot)
      in
      let escapes =
        if not (is_stack si) then true
        else
          match (scope, si.Analysis.slot) with
          | Some sc, Ir.Svar id -> Scope_escape.may_escape sc id
          | _ -> true
      in
      let mb_reach =
        if not (is_stack si) then None
        else Option.map (Callgraph.reach cg) si.Analysis.decl_func
      in
      {
        mb_info = si;
        mb_signs = a.a_signs;
        mb_auths = a.a_auths;
        mb_auth_funcs = auth_funcs;
        mb_writable = writable;
        mb_escapes = escapes;
        mb_reach;
      }
    in
    (* 3. Group into classes. *)
    let classes : (int64 * Rsti_pa.Key.which * string option, member list ref)
        Hashtbl.t =
      Hashtbl.create 64
    in
    let n_candidates = ref 0 in
    List.iter
      (fun key ->
        let a = Hashtbl.find slots key in
        incr n_candidates;
        let ck = class_key anal mech a.a_si in
        match Hashtbl.find_opt classes ck with
        | Some l -> l := member_of a :: !l
        | None -> Hashtbl.replace classes ck (ref [ member_of a ]))
      (List.rev !order);
    let cls_list =
      Hashtbl.fold
        (fun (modifier, pa_key, _) members acc ->
          let members =
            List.sort
              (fun a b -> compare a.mb_info.Analysis.key b.mb_info.Analysis.key)
              !members
          in
          let label =
            RT.to_string (Analysis.rsti_of anal mech (List.hd members).mb_info.Analysis.slot)
          in
          { c_modifier = modifier; c_pa_key = pa_key; c_label = label;
            c_members = members }
          :: acc)
        classes []
    in
    let first_key c = (List.hd c.c_members).mb_info.Analysis.key in
    let cls_list =
      List.sort
        (fun a b ->
          let c = compare a.c_label b.c_label in
          if c <> 0 then c
          else
            let c = compare a.c_modifier b.c_modifier in
            if c <> 0 then c else compare (first_key a) (first_key b))
        cls_list
    in
    (* 4. Metrics. *)
    let sizes = List.map (fun c -> List.length c.c_members) cls_list in
    let hist =
      let h = Hashtbl.create 8 in
      List.iter
        (fun s ->
          Hashtbl.replace h s (1 + Option.value ~default:0 (Hashtbl.find_opt h s)))
        sizes;
      List.sort compare (Hashtbl.fold (fun s n acc -> (s, n) :: acc) h [])
    in
    let live_victim df v =
      List.exists (Callgraph.reaches cg df) v.mb_auth_funcs
    in
    let count_edges ~victim_ok =
      List.fold_left
        (fun acc c ->
          let victims =
            List.filter (fun v -> v.mb_auths > 0 && victim_ok v) c.c_members
          in
          let n_v = List.length victims in
          if n_v = 0 then acc
          else
            let df_cache = Hashtbl.create 4 in
            List.fold_left
              (fun acc d ->
                if d.mb_signs = 0 then acc
                else
                  match d.mb_reach with
                  | None ->
                      let self = d.mb_auths > 0 && victim_ok d in
                      acc + n_v - (if self then 1 else 0)
                  | Some _ ->
                      let df =
                        Option.value ~default:"" d.mb_info.Analysis.decl_func
                      in
                      let n_live =
                        match Hashtbl.find_opt df_cache df with
                        | Some n -> n
                        | None ->
                            let n =
                              List.length (List.filter (live_victim df) victims)
                            in
                            Hashtbl.replace df_cache df n;
                            n
                      in
                      let self =
                        d.mb_auths > 0 && victim_ok d && live_victim df d
                      in
                      acc + n_live - (if self then 1 else 0))
              acc c.c_members)
        0 cls_list
    in
    let replay_edges = count_edges ~victim_ok:(fun _ -> true) in
    let feasible_edges = count_edges ~victim_ok:feasible in
    {
      r_mech = mech;
      r_classes = cls_list;
      r_metrics =
        {
          m_candidates = !n_candidates;
          m_classes = List.length cls_list;
          m_singletons = List.length (List.filter (fun s -> s = 1) sizes);
          m_largest = List.fold_left max 0 sizes;
          m_hist = hist;
          m_replay_edges = replay_edges;
          m_feasible_edges = feasible_edges;
        };
    }
  end

(* ----------------------------------------------------------------- *)
(* Queries                                                             *)
(* ----------------------------------------------------------------- *)

let find_member result slot =
  let key = Analysis.slot_key slot in
  let rec scan = function
    | [] -> None
    | c :: rest -> (
        match
          List.find_opt (fun m -> m.mb_info.Analysis.key = key) c.c_members
        with
        | Some m -> Some (c, m)
        | None -> scan rest)
  in
  scan result.r_classes

let edge_live donor victim =
  match donor.mb_reach with
  | None -> true
  | Some rs -> List.exists (fun f -> List.mem f rs) victim.mb_auth_funcs

let replayable result ~donor ~victim =
  match (find_member result donor, find_member result victim) with
  | Some (cd, d), Some (cv, v) ->
      cd == cv
      && d.mb_info.Analysis.key <> v.mb_info.Analysis.key
      && d.mb_signs > 0 && v.mb_auths > 0 && edge_live d v
  | _ -> false

let class_edges c =
  List.concat_map
    (fun d ->
      if d.mb_signs = 0 then []
      else
        List.filter_map
          (fun v ->
            if
              v.mb_auths > 0
              && d.mb_info.Analysis.key <> v.mb_info.Analysis.key
              && edge_live d v
            then Some (d, v)
            else None)
          c.c_members)
    c.c_members
