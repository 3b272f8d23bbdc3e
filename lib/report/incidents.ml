module RT = Rsti_sti.Rsti_type
module Tab = Rsti_util.Tab
module Stats = Rsti_util.Stats
module Interp = Rsti_machine.Interp
module Incident = Rsti_attacks.Incident
module Equiv = Rsti_dataflow.Equiv

let pctile samples q =
  match samples with
  | [] -> "-"
  | _ ->
      Printf.sprintf "%.0f" (Stats.quantile q (List.map float_of_int samples))

let latency_rows cov =
  List.map
    (fun (mc : Incident.mech_cov) ->
      let c = mc.Incident.mc_latency_cycles in
      let i = mc.Incident.mc_latency_instrs in
      [
        RT.mechanism_to_string mc.Incident.mc_mech;
        string_of_int mc.Incident.mc_incidents;
        (match c with [] -> "-" | x :: _ -> string_of_int x);
        pctile c 0.5;
        pctile c 0.9;
        pctile c 0.99;
        (match List.rev c with [] -> "-" | x :: _ -> string_of_int x);
        pctile i 0.5;
        pctile i 0.9;
        pctile i 0.99;
      ])
    cov.Incident.cov_mechs

let coverage_rows cov =
  List.map
    (fun (mc : Incident.mech_cov) ->
      [
        RT.mechanism_to_string mc.Incident.mc_mech;
        Printf.sprintf "%d/%d" mc.Incident.mc_detected mc.Incident.mc_runs;
        string_of_int mc.Incident.mc_incidents;
        Printf.sprintf "%d/%d" mc.Incident.mc_mapped mc.Incident.mc_incidents;
        string_of_int mc.Incident.mc_replays;
        string_of_int mc.Incident.mc_raw;
        Printf.sprintf "%d > %d" mc.Incident.mc_static_replay_edges
          mc.Incident.mc_static_feasible_edges;
        Printf.sprintf "%d/%d" mc.Incident.mc_replayable_exercised
          mc.Incident.mc_replayable_total;
        string_of_int mc.Incident.mc_nonedges_checked;
      ])
    cov.Incident.cov_mechs

let incident_rows cov =
  List.map
    (fun (r : Incident.record) ->
      let inc = r.Incident.r_incident in
      [
        r.Incident.r_scenario;
        RT.mechanism_to_string r.Incident.r_mech;
        Printf.sprintf "%s:%d" inc.Interp.inc_func inc.Interp.inc_line;
        Rsti_pa.Key.which_to_string inc.Interp.inc_key;
        (match inc.Interp.inc_signer with
        | None -> "raw overwrite"
        | Some op -> Printf.sprintf "%s@%s" (Interp.op_kind_to_string
            op.Interp.op_kind) op.Interp.op_func);
        (match inc.Interp.inc_latency_cycles with
        | None -> "-"
        | Some l -> string_of_int l);
        (match r.Incident.r_classes with
        | c :: _ -> c.Equiv.c_label
        | [] -> if r.Incident.r_pp then "<pp-table>" else "?");
        (if r.Incident.r_mapped then "yes" else "NO");
      ])
    cov.Incident.cov_records

(* The full forensic view of one incident — the shape the EXPERIMENTS
   walkthrough narrates. *)
let render_record (r : Incident.record) =
  let inc = r.Incident.r_incident in
  let b = Buffer.create 512 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt in
  line "Incident: %s under %s (%s)" r.Incident.r_scenario
    (RT.mechanism_to_string r.Incident.r_mech)
    r.Incident.r_paper_row;
  line "  failing auth   %s:%d  key=%s" inc.Interp.inc_func
    inc.Interp.inc_line
    (Rsti_pa.Key.which_to_string inc.Interp.inc_key);
  line "  expected signer  modifier=0x%Lx (static class %s)"
    inc.Interp.inc_static_mod
    (match r.Incident.r_classes with
    | c :: _ -> c.Equiv.c_label
    | [] -> if r.Incident.r_pp then "<pp-table>" else "?");
  (match inc.Interp.inc_signer with
  | None ->
      line "  observed signer  none - the value was a raw (PAC-less) overwrite"
  | Some op ->
      line "  observed signer  %s at %s:%d  modifier=0x%Lx%s"
        (Interp.op_kind_to_string op.Interp.op_kind)
        op.Interp.op_func op.Interp.op_line op.Interp.op_static_mod
        (match r.Incident.r_donor_classes with
        | c :: _ -> Printf.sprintf " (static class %s)" c.Equiv.c_label
        | [] -> ""));
  line "  runtime modifier 0x%Lx  pointer 0x%Lx" inc.Interp.inc_modifier
    inc.Interp.inc_ptr;
  (match (inc.Interp.inc_latency_cycles, inc.Interp.inc_latency_instrs) with
  | Some c, Some i ->
      line "  detection latency  %d cycles / %d instructions after the \
            corrupting store" c i
  | _ -> line "  detection latency  unknown (corruption point not tagged)");
  line "  flight window (%d ops, oldest first):"
    (List.length inc.Interp.inc_window);
  List.iter
    (fun (op : Interp.pac_op) ->
      line "    [c%d] %-7s %s:%d key=%s mod=0x%Lx %s" op.Interp.op_cycle
        (Interp.op_kind_to_string op.Interp.op_kind)
        op.Interp.op_func op.Interp.op_line
        (Rsti_pa.Key.which_to_string op.Interp.op_key)
        op.Interp.op_static_mod
        (if op.Interp.op_ok then "ok" else "FAIL"))
    inc.Interp.inc_window;
  Buffer.contents b

let verdict_line cov =
  Printf.sprintf
    "Incident coverage verdict: %s (%d detections, %d incidents, %d \
     unmapped, %d missing)\n"
    (if Incident.ok cov then "OK - every detection maps to a static class"
     else "FAIL")
    cov.Incident.cov_detected cov.Incident.cov_incidents
    cov.Incident.cov_unmapped
    (List.length cov.Incident.cov_missing)

let render cov =
  "Detection latency from the corrupting store to the failing \
   authentication,\nin simulated cycles (and instructions), across every \
   detected Table-1/\nTable-2 attack. The flight recorder timestamps both \
   ends; latencies are\ndeterministic because the clock is the machine's, \
   not the host's.\n\n"
  ^ Tab.render
      ~align:
        Tab.[ Left; Right; Right; Right; Right; Right; Right; Right; Right; Right ]
      ~header:
        [
          "Mechanism"; "n"; "min"; "p50"; "p90"; "p99"; "max"; "i-p50";
          "i-p90"; "i-p99";
        ]
      (latency_rows cov)
  ^ "\n\n"
  ^ Tab.section "Static<->dynamic coverage map"
  ^ "\nDetected: detections over catalog runs. Mapped: incidents that \
     resolve\nto a static Equiv class (or the pp modifier table). Edges: \
     static\nreplayable > feasible gadget edges over the catalog programs. \
     Exercised:\ncross-validation pairs statically replayable and \
     dynamically confirmed;\nnon-edges: cross-class controls that \
     trapped.\n\n"
  ^ Tab.render
      ~align:Tab.[ Left; Right; Right; Right; Right; Right; Right; Right; Right ]
      ~header:
        [
          "Mechanism"; "Detected"; "Incidents"; "Mapped"; "Replays"; "Raw";
          "Edges"; "Exercised"; "Non-edges";
        ]
      (coverage_rows cov)
  ^ "\n\n"
  ^ Tab.section "Incident records"
  ^ "\n\n"
  ^ Tab.render
      ~align:Tab.[ Left; Left; Left; Right; Left; Right; Left; Right ]
      ~header:
        [
          "Scenario"; "Mechanism"; "Site"; "Key"; "Signer"; "Latency";
          "Class"; "mapped";
        ]
      (incident_rows cov)
  ^ "\n\n"
  ^ Tab.section "Sample forensic record"
  ^ "\n\n"
  ^ (match
       List.find_opt
         (fun (r : Incident.record) ->
           r.Incident.r_table = "table2"
           && r.Incident.r_incident.Interp.inc_signer <> None)
         cov.Incident.cov_records
     with
    | Some r -> render_record r
    | None -> (
        match cov.Incident.cov_records with
        | r :: _ -> render_record r
        | [] -> "(no incidents)\n"))
  ^ "\n"
  ^ verdict_line cov
