(** The paper-reproduction reports, one table: Tables 1-3, Figures 9-10,
    sections 6.2-6.3, the ablations, the elision, validation,
    attack-surface and detection-latency reports. The bench harness runs
    every entry and [rstic report NAME] looks names up here, so both
    print the same text for a section. *)

type t = {
  name : string;  (** the command-line name, e.g. ["table1"] *)
  title : string;  (** the header the bench prints above the text *)
  run : unit -> string * (string * Rsti_util.Json.t) list;
      (** the report text, and the BENCH_fig9.json blocks the section's
          own data produces: [elide-precision-cs], [attack-surface],
          [detection-latency]; the others produce none *)
}

val all : t list
(** Every section, in the order the bench prints them. *)

val perf_json : unit -> (string * Rsti_util.Json.t) list
(** Figure 9's [benchmarks] and [geomeans] blocks ({!Perf.to_json}) once
    a section has run the perf suite that [fig9], [fig10] and
    [correlation] share; empty before. *)
