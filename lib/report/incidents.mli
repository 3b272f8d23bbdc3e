(** The security-event forensics report behind the [detection-latency]
    section of {!Sections}:
    per-mechanism detection-latency percentiles (p50/p90/p99 in simulated
    cycles and instructions), the static↔dynamic coverage map, the
    per-incident table, one fully rendered forensic record, and the
    CI-greppable verdict line ["Incident coverage verdict: OK ..."],
    which holds iff every detected attack produced an incident that maps
    into the static attack-surface graph. *)

val render_record : Rsti_attacks.Incident.record -> string
(** The full forensic view of one incident: failing site, expected vs
    observed signer, runtime modifier, detection latency, and the
    flight-recorder window. *)

val verdict_line : Rsti_attacks.Incident.coverage -> string

val render : Rsti_attacks.Incident.coverage -> string
(** Render a coverage map ({!Rsti_attacks.Incident.collect}). *)
