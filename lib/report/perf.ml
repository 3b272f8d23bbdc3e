module RT = Rsti_sti.Rsti_type
module Run = Rsti_workloads.Run
module Scheduler = Rsti_engine.Scheduler

type t = {
  spec2006 : Run.measurement list;
  spec2017 : Run.measurement list;
  nbench : Run.measurement list;
  pytorch : Run.measurement list;
  nginx : Run.measurement list;
}

let mechs = RT.all_mechanisms

let of_mech ms mech = List.filter (fun (m : Run.measurement) -> m.mech = mech) ms

let all t = t.spec2006 @ t.spec2017 @ t.nbench @ t.pytorch @ t.nginx

(* Figure 9's machine totals per mechanism, as counters
   [machine.fig9.<mech>.<count>]: summed over the measurement rows, so
   they are the same at any job count. *)
let count_machine t =
  List.iter
    (fun mech ->
      let rows = of_mech (all t) mech in
      List.iter
        (fun (name, f) ->
          Rsti_observe.Observe.Metrics.add
            (Rsti_observe.Observe.Metrics.counter
               (Printf.sprintf "machine.fig9.%s.%s" (RT.mechanism_slug mech) name))
            (List.fold_left (fun n (m : Run.measurement) -> n + f m) 0 rows))
        [
          ("instrs", fun m -> m.dyn.instrs);
          ("cycles", fun m -> m.mech_cycles);
          ("pac_signs", fun m -> m.dyn.pac_signs);
          ("pac_auths", fun m -> m.dyn.pac_auths);
          ("pac_strips", fun m -> m.dyn.pac_strips);
          ("pp_calls", fun m -> m.dyn.pp_calls);
        ])
    mechs

(* One scheduler task per workload across every suite at once (the
   widest fan-out the data allows), then regroup per suite in workload
   order — the result is independent of the job count. *)
let collect () =
  let suites =
    [
      Rsti_workloads.Spec2006.all;
      Rsti_workloads.Spec2017.all;
      Rsti_workloads.Nbench.all;
      Rsti_workloads.Pytorch.all;
      Rsti_workloads.Nginx.all;
    ]
  in
  let tagged =
    List.concat (List.mapi (fun i ws -> List.map (fun w -> (i, w)) ws) suites)
  in
  let measured =
    Scheduler.map (fun (i, w) -> (i, Run.measure w mechs)) tagged
  in
  let of_suite i =
    List.concat_map (fun (j, ms) -> if i = j then ms else []) measured
  in
  let t =
    {
      spec2006 = of_suite 0;
      spec2017 = of_suite 1;
      nbench = of_suite 2;
      pytorch = of_suite 3;
      nginx = of_suite 4;
    }
  in
  count_machine t;
  t

let overheads ms = List.map (fun (m : Run.measurement) -> m.Run.overhead_pct) ms

let to_json p =
  let module J = Rsti_util.Json in
  let geomean ms mech =
    Rsti_util.Stats.geomean_overhead (overheads (of_mech ms mech))
  in
  let geomeans =
    List.concat_map
      (fun (label, ms) ->
        List.map
          (fun mech ->
            J.Obj
              [
                ("suite", J.Str label);
                ("mech", J.Str (RT.mechanism_slug mech));
                ("overhead_pct", J.Float (geomean ms mech));
              ])
          mechs)
      [
        ("SPEC2006", p.spec2006);
        ("SPEC2017", p.spec2017);
        ("nbench", p.nbench);
        ("CPython", p.pytorch);
        ("NGINX", p.nginx);
        ("all", all p);
      ]
  in
  [
    ("benchmarks", J.List (List.map Run.measurement_json (all p)));
    ("geomeans", J.List geomeans);
  ]
