(* The whole-program lint pass: surfaces the STI-weakening constructs the
   paper only tabulates (cast-driven equivalence-class growth, xpac
   laundering at external boundaries, CE/FE-needing double-pointer sites,
   static substitution windows) as actionable diagnostics with
   DILocations. Runs after Sti.Analysis on the same IR + debug metadata. *)

module Ir = Rsti_ir.Ir
module Ctype = Rsti_minic.Ctype
module Analysis = Rsti_sti.Analysis
module RT = Rsti_sti.Rsti_type
module Points_to = Rsti_dataflow.Points_to

let type_str ty = Ctype.to_string (Ctype.strip_all_quals ty)

let loc_of (ins : Ir.instr) fallback_fn =
  match ins.dbg with
  | Some d -> (d.Rsti_ir.Dinfo.dl_func, d.dl_line)
  | None -> (fallback_fn, 0)

(* --------------------------- rule 1: casts --------------------------- *)

(* Type-erasing / class-merging pointer casts, with the ECV/ECT growth
   they cause: the merged STC class's type count and the number of
   pointer variables it spans (the substitution surface under STC). *)
let cast_findings anal (m : Ir.modul) =
  let vars = Analysis.pointer_vars anal in
  let class_vars cls =
    List.length
      (List.filter (fun (si : Analysis.slot_info) -> List.mem (type_str si.sty) cls) vars)
  in
  let out = ref [] in
  List.iter
    (fun (fn : Ir.func) ->
      Ir.iter_instrs
        (fun ins ->
          match ins.i with
          | Ir.Bitcast { from_ty; to_ty; _ }
            when Ctype.is_pointer from_ty && Ctype.is_pointer to_ty
                 && type_str from_ty <> type_str to_ty ->
              let fs = type_str from_ty and ts = type_str to_ty in
              let cls = Analysis.type_class_names anal fs in
              let nvars = class_vars cls in
              let func, line = loc_of ins fn.name in
              let universal =
                match Ctype.strip_all_quals to_ty with
                | Ctype.Ptr Ctype.Void | Ctype.Ptr (Ctype.Ptr Ctype.Void)
                | Ctype.Ptr Ctype.Char ->
                    true
                | _ -> false
              in
              out :=
                {
                  Finding.kind =
                    Finding.Type_erasing_cast
                      {
                        from_ty = fs;
                        to_ty = ts;
                        class_types = List.length cls;
                        class_vars = nvars;
                      };
                  severity = (if universal then Finding.Warning else Finding.Info);
                  func;
                  line;
                  message =
                    Printf.sprintf
                      "cast %s -> %s merges STC equivalence classes: class now \
                       {%s} (ECT %d) spanning %d pointer variables"
                      fs ts (String.concat "," cls) (List.length cls) nvars;
                  consequence =
                    "under STC every member type shares one modifier, so a \
                     validly signed pointer of any class member substitutes \
                     undetected (Table 2, cast-merged replay); STWC/STL \
                     re-sign here instead";
                }
                :: !out
          | _ -> ())
        fn)
    m.m_funcs;
  !out

(* ------------------------ rule 2: const stores ----------------------- *)

(* Stores through const-qualified slots. Initializing stores are not
   violations: the synthetic global initializer, and the first store a
   declaration/parameter-spill emits to its own alloca. *)
let const_store_findings anal (m : Ir.modul) =
  let out = ref [] in
  List.iter
    (fun (fn : Ir.func) ->
      if fn.Ir.name <> Ir.global_init_name then begin
        let alloca_of = Hashtbl.create 16 in
        let initialized = Hashtbl.create 16 in
        Ir.iter_instrs
          (fun ins ->
            match ins.i with
            | Ir.Alloca { dst; dv = Some dv; _ } ->
                Hashtbl.replace alloca_of dst dv.Rsti_ir.Dinfo.dv_id
            | Ir.Store { addr; slot; _ } -> (
                let is_init =
                  match (addr, slot) with
                  | Ir.Reg r, Ir.Svar id -> (
                      match Hashtbl.find_opt alloca_of r with
                      | Some aid when aid = id && not (Hashtbl.mem initialized id) ->
                          Hashtbl.replace initialized id ();
                          true
                      | _ -> false)
                  | _ -> false
                in
                match Analysis.slot_info anal slot with
                | si when si.read_only && not is_init ->
                    let func, line = loc_of ins fn.name in
                    out :=
                      {
                        Finding.kind = Finding.Const_store { slot = Ir.slot_to_string slot };
                        severity = Finding.Error;
                        func;
                        line;
                        message =
                          Printf.sprintf
                            "store through const-qualified slot %s (permission R)"
                            (Ir.slot_to_string slot);
                        consequence =
                          "the RSTI-type carries permission R, so the sign at \
                           this store and the auth at R loads disagree: every \
                           mechanism traps here at runtime — fix the source";
                      }
                      :: !out
                | _ -> ())
            | _ -> ())
          fn
      end)
    m.m_funcs;
  !out

(* --------------------- rule 3: double-pointer loss ------------------- *)

let pp_findings anal =
  let census = Analysis.pp_census anal in
  let ce_of =
    let tbl = Hashtbl.create 8 in
    List.iter
      (fun (ty, ce, _) -> Hashtbl.replace tbl (type_str ty) ce)
      (Analysis.ce_table anal);
    fun tstr -> Hashtbl.find_opt tbl tstr
  in
  List.map
    (fun (func, ty) ->
      let tstr = type_str ty in
      let ce = ce_of tstr in
      {
        Finding.kind = Finding.Pp_type_loss { from_ty = tstr; ce };
        severity = (match ce with Some _ -> Finding.Warning | None -> Finding.Error);
        func;
        line = 0;
        message =
          Printf.sprintf
            "double pointer %s cast to a universal type and passed on: the \
             pointee's RSTI-type is lost at the callee%s"
            tstr
            (match ce with
            | Some ce -> Printf.sprintf " (CE/FE runtime covers it, CE=%d)" ce
            | None -> " and NO CE/FE entry covers this site");
        consequence =
          (match ce with
          | Some _ ->
              "inner loads/stores fall back to the pp runtime (§4.7.7): 3 \
               extra pp calls per pass-through, and protection narrows to \
               the 8-bit CE tag"
          | None ->
              "inner accesses through the callee's double pointer are signed \
               under the wrong (universal) RSTI-type: legitimate runs trap, \
               or the site is left uninstrumented and unprotected");
      })
    census.pp_special

(* ----------------------- rule 4: xpac laundering --------------------- *)

let xpac_findings (m : Ir.modul) =
  let defined = Hashtbl.create 16 in
  List.iter (fun (f : Ir.func) -> Hashtbl.replace defined f.Ir.name ()) m.m_funcs;
  let out = ref [] in
  List.iter
    (fun (fn : Ir.func) ->
      Ir.iter_instrs
        (fun ins ->
          match ins.i with
          | Ir.Call { callee = Ir.Direct f; arg_tys; _ }
            when not (Hashtbl.mem defined f) ->
              let ptr_args =
                List.length (List.filter Ctype.is_pointer arg_tys)
              in
              if ptr_args > 0 then begin
                let func, line = loc_of ins fn.name in
                out :=
                  {
                    Finding.kind = Finding.Xpac_launder { callee = f; ptr_args };
                    severity = Finding.Warning;
                    func;
                    line;
                    message =
                      Printf.sprintf
                        "external call %s(%d pointer arg%s): PACs are \
                         xpac-stripped at the boundary"
                        f ptr_args
                        (if ptr_args = 1 then "" else "s");
                    consequence =
                      "xpac strips without checking (§4.6): with FPAC off, a \
                       corrupted signed pointer passed here is laundered into \
                       a clean raw pointer instead of trapping — the library \
                       then uses the attacker's address";
                  }
                  :: !out
              end
          | _ -> ())
        fn)
    m.m_funcs;
  !out

(* -------------------- rule 5: substitution windows ------------------- *)

(* Slots sharing one RSTI-type under STWC/STC: Table 2's attacker window,
   reported statically. Under STL the location term separates them. *)
let substitution_findings anal =
  let vars = Analysis.pointer_vars anal in
  List.concat_map
    (fun mech ->
      let tbl = Hashtbl.create 64 in
      List.iter
        (fun (si : Analysis.slot_info) ->
          let rt = Analysis.rsti_of anal mech si.slot in
          let key = RT.to_string rt in
          let prev = try Hashtbl.find tbl key with Not_found -> [] in
          Hashtbl.replace tbl key (Ir.slot_to_string si.slot :: prev))
        vars;
      Hashtbl.fold
        (fun rsti members acc ->
          if List.length members < 2 then acc
          else
            let members = List.sort_uniq compare members in
            {
              Finding.kind = Finding.Substitution_window { mech; rsti; members };
              severity = (if mech = RT.Stc then Finding.Warning else Finding.Info);
              func = "";
              line = 0;
              message =
                Printf.sprintf
                  "%d slots share one RSTI-type under %s: %s all sign/auth \
                   with modifier of %s"
                  (List.length members)
                  (RT.mechanism_to_string mech)
                  (String.concat ", " members) rsti;
              consequence =
                "a validly signed pointer from any member slot authenticates \
                 in every other (same-RSTI-type replay, Table 2): only STL's \
                 location binding separates them";
            }
            :: acc)
        tbl []
      |> List.sort Finding.compare_finding)
    [ RT.Stwc; RT.Stc ]

(* ------------------------ rule 6: missing !dbg ----------------------- *)

let dbg_findings (m : Ir.modul) =
  let fnames = Hashtbl.create 16 in
  List.iter (fun (f : Ir.func) -> Hashtbl.replace fnames f.Ir.name ()) m.m_funcs;
  let out = ref [] in
  List.iter
    (fun (fn : Ir.func) ->
      Ir.iter_instrs
        (fun ins ->
          match ins.i with
          | Ir.Load _ | Ir.Store _ -> (
              let problem =
                match ins.dbg with
                | None -> Some "carries no !dbg location"
                | Some d ->
                    if Hashtbl.mem fnames d.Rsti_ir.Dinfo.dl_func then None
                    else
                      Some
                        (Printf.sprintf "!dbg names unknown function %s"
                           d.Rsti_ir.Dinfo.dl_func)
              in
              match problem with
              | None -> ()
              | Some why ->
                  let func, line = loc_of ins fn.name in
                  out :=
                    {
                      Finding.kind =
                        Finding.Missing_dbg { instr = Ir.instr_to_string ins };
                      severity = Finding.Warning;
                      func;
                      line;
                      message =
                        Printf.sprintf "memory access %s" why;
                      consequence =
                        "Sti.Analysis keys scopes on the !dbg function: this \
                         access is attributed to the wrong scope, silently \
                         widening or splitting the slot's RSTI-type";
                    }
                    :: !out)
          | _ -> ())
        fn)
    m.m_funcs;
  !out

(* --------------------- rule 7: overflow windows ---------------------- *)

(* The linear-overflow attacker window made visible: a writable array
   laid out before pointer slots in the same globals segment or inside
   the same struct. This is the construct every Table-1 attack starts
   from — and exactly the layout that keeps {!Elide} from discharging
   the slots behind it. *)
let window_findings (m : Ir.modul) =
  let rec pointer_bearing ty =
    match Ctype.strip_all_quals ty with
    | Ctype.Ptr _ -> true
    | Ctype.Struct s ->
        List.exists (fun (_, fty) -> pointer_bearing fty) (Ir.struct_lookup m s)
    | Ctype.Array (e, _) -> pointer_bearing e
    | _ -> false
  in
  let finding ~opener ~victims ~line ~where =
    {
      Finding.kind = Finding.Overflow_window { opener; victims };
      severity = Finding.Warning;
      func = "";
      line;
      message =
        Printf.sprintf
          "writable array %s opens a linear-overflow window over %d pointer \
           slot%s %s: %s"
          opener (List.length victims)
          (if List.length victims = 1 then "" else "s")
          where
          (String.concat ", " victims);
      consequence =
        "a contiguous overflow running forward from the array rewrites the \
         signed pointers behind it (the Table-1 pattern): their auths are \
         the only thing standing, so none of them is elidable";
    }
  in
  (* Each pointer slot is attributed to its NEAREST preceding opener
     only: a window's victim list stops at the next opener (which is
     itself a victim when pointer-bearing — it lies behind the previous
     array — but everything past it belongs to the next window). Listing
     every trailing slot under every opener double-counted each victim
     once per opener before it. *)
  let victims_until_next_opener ~is_opener ~bearing ~name rest =
    let rec go acc = function
      | [] -> List.rev acc
      | v :: tl ->
          let acc = if bearing v then name v :: acc else acc in
          if is_opener v then List.rev acc else go acc tl
    in
    go [] rest
  in
  let global_windows =
    let opens (g : Ir.global_def) =
      Points_to.opens_window m g.gvar.Rsti_minic.Tast.v_ty
    in
    let rec walk = function
      | [] -> []
      | (g : Ir.global_def) :: rest when opens g ->
          let victims =
            victims_until_next_opener ~is_opener:opens
              ~bearing:(fun (v : Ir.global_def) ->
                pointer_bearing v.gvar.Rsti_minic.Tast.v_ty)
              ~name:(fun (v : Ir.global_def) -> v.gvar.Rsti_minic.Tast.v_name)
              rest
          in
          if victims = [] then walk rest
          else
            finding ~opener:g.gvar.Rsti_minic.Tast.v_name ~victims
              ~line:g.gvar.Rsti_minic.Tast.v_loc.Rsti_minic.Loc.line
              ~where:"in the globals segment"
            :: walk rest
      | _ :: rest -> walk rest
    in
    walk m.m_globals
  in
  let struct_windows =
    List.concat_map
      (fun (sname, fields) ->
        let opens (_, fty) = Points_to.opens_window m fty in
        let rec walk = function
          | [] -> []
          | (fname, fty) :: rest when Points_to.opens_window m fty ->
              let victims =
                victims_until_next_opener ~is_opener:opens
                  ~bearing:(fun (_, fty) -> pointer_bearing fty)
                  ~name:(fun (fname, _) -> sname ^ "." ^ fname)
                  rest
              in
              if victims = [] then walk rest
              else
                finding
                  ~opener:(sname ^ "." ^ fname)
                  ~victims ~line:0
                  ~where:(Printf.sprintf "in every struct %s instance" sname)
                :: walk rest
          | _ :: rest -> walk rest
        in
        walk fields)
      m.m_structs
  in
  global_windows @ struct_windows

(* --------------------- rule 8: extern ingress ------------------------ *)

(* Raw pointers returned by external functions (malloc and friends,
   looked through casts) enter the signed domain at a store: the window
   between the return and the sign is unprotected, and every such heap
   pointer has same-typed substitution donors living on the heap — the
   Heap_value obligation of {!Elide}, reported at its source from the
   same chase ({!Elide.extern_ingress}). *)
let ingress_findings (m : Ir.modul) =
  List.map
    (fun (fn, ins, slot, callee) ->
      let func, line = loc_of ins fn in
      {
        Finding.kind =
          Finding.Extern_ingress { callee; slot = Ir.slot_to_string slot };
        severity = Finding.Info;
        func;
        line;
        message =
          Printf.sprintf
            "raw pointer returned by external %s enters the signed domain at \
             this store to %s"
            callee (Ir.slot_to_string slot);
        consequence =
          "the value is unprotected between the return and this sign \
           (§4.6), and same-typed heap siblings make substitution donors: \
           the slot's flow component must keep its checks (Elide's \
           heap-value obligation)";
      })
    (Elide.extern_ingress m)

(* ---------------------- rule 9: scope escapes ------------------------ *)

(* Stack slots whose address provably outlives the defining scope, from
   the dataflow layer's scope-escape analysis. The paper enforces scope
   at runtime (the location term dies with the frame); this rule reports
   statically where that enforcement is load-bearing. *)
let scope_findings (scope : Rsti_dataflow.Scope_escape.t) =
  List.map
    (fun (e : Rsti_dataflow.Scope_escape.escape) ->
      let sink = Rsti_dataflow.Scope_escape.sink_to_string e.sink in
      {
        Finding.kind =
          Finding.Scope_escape
            { local = e.local_name; decl_func = e.func; sink };
        severity = Finding.Warning;
        func = e.func;
        line = e.line;
        message =
          Printf.sprintf
            "address of local %s (frame of %s) may outlive its scope: %s"
            e.local_name e.func sink;
        consequence =
          "the slot's RSTI-type location term dies with the frame, so a \
           later auth through the escaped address traps on legitimate runs \
           under STL — and the frame slot it re-uses becomes a \
           substitution donor meanwhile";
      })
    (Rsti_dataflow.Scope_escape.escapes scope)

(* ------------------- rule 10: stale-frame derefs --------------------- *)

let stale_findings (scope : Rsti_dataflow.Scope_escape.t) =
  List.map
    (fun (s : Rsti_dataflow.Scope_escape.stale) ->
      {
        Finding.kind =
          Finding.Stale_frame_deref
            {
              local = s.local_name;
              decl_func = s.decl_func;
              use_func = s.use_func;
              must = s.must;
            };
        severity = (if s.must then Finding.Error else Finding.Warning);
        func = s.use_func;
        line = s.use_line;
        message =
          Printf.sprintf
            "%s dereferences a pointer that %s target local %s of %s, whose \
             frame has provably ended (%s is never an active caller of %s)"
            s.use_func
            (if s.must then "can only" else "may")
            s.local_name s.decl_func s.decl_func s.use_func;
        consequence =
          "the access touches a dead frame: whatever now occupies the slot \
           is read or clobbered, and under scope enforcement the stale \
           location term makes every auth here trap — fix the source";
      })
    (Rsti_dataflow.Scope_escape.stale_derefs scope)

(* The dataflow-derived findings alone — what `rstic analyze
   --format=sarif` reports without the full lint battery. *)
let dataflow_findings (scope : Rsti_dataflow.Scope_escape.t) : Finding.t list =
  scope_findings scope @ stale_findings scope
  |> List.sort_uniq (fun a b ->
         let c = Finding.compare_finding a b in
         if c <> 0 then c else compare a b)

(* ------------------------------ driver ------------------------------- *)

let run ?scope ?attack_surface anal (m : Ir.modul) : Finding.t list =
  cast_findings anal m
  @ const_store_findings anal m
  @ pp_findings anal
  @ xpac_findings m
  @ substitution_findings anal
  @ dbg_findings m
  @ window_findings m
  @ ingress_findings m
  @ (match scope with
    | None -> []
    | Some s -> scope_findings s @ stale_findings s)
  @ (match attack_surface with
    | None -> []
    | Some results -> Attack_surface.findings m results)
  |> List.sort_uniq (fun a b ->
         let c = Finding.compare_finding a b in
         if c <> 0 then c else compare a b)

let render_text ~file findings =
  match findings with
  | [] -> Printf.sprintf "%s: no findings\n" file
  | fs ->
      String.concat "\n" (List.map (Finding.to_text ~file) fs)
      ^ Printf.sprintf "\n%s: %d finding%s (%d error, %d warning, %d info)\n" file
          (List.length fs)
          (if List.length fs = 1 then "" else "s")
          (List.length (List.filter (fun f -> f.Finding.severity = Finding.Error) fs))
          (List.length (List.filter (fun f -> f.Finding.severity = Finding.Warning) fs))
          (List.length (List.filter (fun f -> f.Finding.severity = Finding.Info) fs))

let render_json ~file findings =
  Json.to_string (Finding.report_json ~file findings) ^ "\n"

(* ------------------------------ SARIF -------------------------------- *)

(* SARIF 2.1.0: one run, tool.driver "stilint", one reportingDescriptor
   per lint rule, one result per finding across every linted file. Level
   maps severity (error/warning/note); module-level findings (line 0 or
   empty function) omit the region, as the spec allows. *)
let sarif_rules =
  [
    ( "type-erasing-cast",
      "Pointer cast merges STC equivalence classes, widening the \
       substitution surface" );
    ( "const-store",
      "Store through a const-qualified slot: sign and auth permissions \
       disagree, every mechanism traps" );
    ( "pp-type-loss",
      "Double pointer cast to a universal type loses the pointee's \
       RSTI-type at the callee" );
    ( "xpac-launder",
      "External call strips PACs with xpac, laundering corrupted pointers \
       when FPAC is off" );
    ( "substitution-window",
      "Multiple slots share one RSTI-type, admitting undetected \
       same-type replay" );
    ( "missing-dbg",
      "Memory access with missing or dangling !dbg metadata is attributed \
       to the wrong scope" );
    ( "overflow-window",
      "Writable array laid out before pointer slots opens a \
       linear-overflow attacker window" );
    ( "extern-pointer-ingress",
      "Raw external pointer return enters the signed domain unprotected" );
    ( "scope-escape",
      "Address of a stack slot may outlive its defining scope, making the \
       runtime scope check load-bearing" );
    ( "stale-frame-deref",
      "Dereference of a pointer targeting a local whose frame has provably \
       ended" );
    ( "modifier-collision",
      "Instrumented slots share one PA (key, modifier) pair, admitting \
       undetected signed-pointer replay within the class" );
    ( "feasible-substitution",
      "A same-modifier replay the confined linear-overflow attacker can \
       execute: donor signed and live, victim storage attacker-writable" );
  ]

let sarif_level = function
  | Finding.Error -> "error"
  | Finding.Warning -> "warning"
  | Finding.Info -> "note"

let sarif_result ~file (f : Finding.t) =
  let region =
    if f.Finding.line <= 0 then []
    else
      [
        ( "region",
          Json.Obj
            (("startLine", Json.Int f.Finding.line)
            ::
            (if f.Finding.func = "" then []
             else
               [
                 ( "message",
                   Json.Obj [ ("text", Json.Str ("in " ^ f.Finding.func)) ] );
               ])) );
      ]
  in
  Json.Obj
    [
      ("ruleId", Json.Str (Finding.kind_name f.Finding.kind));
      ("level", Json.Str (sarif_level f.Finding.severity));
      ( "message",
        Json.Obj
          [
            ( "text",
              Json.Str (f.Finding.message ^ " — " ^ f.Finding.consequence) );
          ] );
      ( "locations",
        Json.List
          [
            Json.Obj
              [
                ( "physicalLocation",
                  Json.Obj
                    (("artifactLocation", Json.Obj [ ("uri", Json.Str file) ])
                    :: region) );
              ];
          ] );
    ]

let render_sarif (reports : (string * Finding.t list) list) =
  let rules =
    List.map
      (fun (id, desc) ->
        Json.Obj
          [
            ("id", Json.Str id);
            ("shortDescription", Json.Obj [ ("text", Json.Str desc) ]);
          ])
      sarif_rules
  in
  let results =
    List.concat_map
      (fun (file, findings) -> List.map (sarif_result ~file) findings)
      reports
  in
  Json.to_string
    (Json.Obj
       [
         ( "$schema",
           Json.Str
             "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/Schemata/sarif-schema-2.1.0.json"
         );
         ("version", Json.Str "2.1.0");
         ( "runs",
           Json.List
             [
               Json.Obj
                 [
                   ( "tool",
                     Json.Obj
                       [
                         ( "driver",
                           Json.Obj
                             [
                               ("name", Json.Str "stilint");
                               ("rules", Json.List rules);
                             ] );
                       ] );
                   ("results", Json.List results);
                 ];
             ] );
       ])
  ^ "\n"
