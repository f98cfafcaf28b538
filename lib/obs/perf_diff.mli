(** Perf-regression gate: compare two bench manifests
    ([vmht-bench-eval/1], [/2] or [vmht-bench/3]).

    Extracts per-experiment wall seconds, ns/run and (from /2 on) simulated
    cycle percentiles, plus micro-benchmark ns/run, and flags every
    metric that grew by at least the threshold percentage.  Metrics
    present in only one manifest are listed as [missing] rather than
    dropped, so renames can't silently weaken the gate. *)

type row = {
  metric : string;  (** e.g. ["fig1.seconds"], ["micro.vm/.../run.ns_per_run"] *)
  old_v : float;
  new_v : float;
  delta_pct : float;  (** positive = slower *)
}

type report = {
  rows : row list;  (** compared metrics, manifest order *)
  regressions : row list;  (** rows with [delta_pct >= threshold] *)
  missing : string list;
  unattributed : string list;
      (** experiments (from either manifest) with no [ns_per_run] and
          no ["kind": "synthesis"] marking to explain its absence —
          reported, never silently skipped *)
}

val diff :
  ?threshold:float -> old_manifest:Json.t -> new_manifest:Json.t -> unit -> report
(** [threshold] is a percentage; default 10. *)

val render : threshold:float -> report -> string
(** Aligned table plus a one-line verdict. *)
