(** The paper-reproduction reports, one table: Tables 1-3, Figures 9-10,
    sections 6.2-6.3, the ablations, the elision, validation,
    attack-surface and detection-latency reports. [rstic report] runs
    them through {!run}: every entry with no names, the named ones
    otherwise. *)

type t = {
  name : string;  (** the command-line name, e.g. ["table1"] *)
  title : string;  (** the header printed above the text *)
  run : unit -> string * (string * Rsti_util.Json.t) list;
      (** the report text, and the BENCH_fig9.json blocks the section's
          own data produces: [elide-precision-cs], [attack-surface],
          [detection-latency]; the others produce none *)
}

val all : t list
(** Every section, in table order. *)

val run : t list -> Rsti_util.Json.t
(** Run the sections in list order, each under a [bench.<name>] span,
    printing its {!Rsti_util.Tab.section} header and then its text on
    stdout; then print one [[bench]] line with the section count, the
    wall clock and the job count on stderr, so stdout depends only on
    the source. Returns the [rsti-bench-fig9/1] summary: the run facts
    (schema, jobs, wall clock, seconds per section, engine cache
    totals), the blocks the sections produced, and Figure 9's
    [benchmarks] and [geomeans] once a section has run the perf suite
    that [fig9], [fig10] and [correlation] share. *)
