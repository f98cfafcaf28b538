(** First-class experiment registry — the one place that knows every
    table, figure, ablation and sweep the harness can regenerate.

    The CLI dispatches by {!find} and {!by_kind} and derives its
    listings and help text from {!all}; adding an experiment means
    adding one record here and nowhere else. *)

type kind = Table | Figure | Ablation | Sweep

val kind_name : kind -> string

type t = {
  name : string;  (** lookup key, e.g. ["table3"] or ["robust"] *)
  doc : string;  (** one-line summary for listings and [--help] *)
  kind : kind;
  run : Vmht.Config.t -> string;
      (** render the experiment against a base configuration; every
          sweep derives its points from it, so CLI overrides (seed,
          fault plan, ...) reach every run *)
}

val all : t list
(** In report order: table1..table6, fig1..fig6, abl1..abl7, robust,
    rtl1, dse1. *)

val find : string -> t option

val by_kind : kind -> t list

val run : ?config:Vmht.Config.t -> t -> string
(** [run e] is [e.run config] (default {!Vmht.Config.default}). *)

type bench = {
  mismatches : string list;  (** incorrect runs, as {!Common.mismatch_log} *)
  manifest :
    exit_code:int -> (string * Vmht_obs.Json.t) list -> Vmht_obs.Json.t;
      (** the run's [vmht-bench/3] manifest, ending with the caller's
          exit code and extra fields *)
}

val bench :
  ?config:Vmht.Config.t ->
  ?emit:(t -> string -> float -> unit) ->
  t list ->
  bench
(** Reset the process-wide counters (mismatches, pass and translation
    totals), then run the experiments one after another, each timed
    under {!Common.with_run_stats}; [emit e output seconds] sees each
    as it finishes.  The manifest has one record per experiment
    ([name], [kind], [seconds], [runs], [ns_per_run], [cycles],
    [host_ns], [output_bytes]) plus the run's seed, fault plan, pass
    schedule and statistics, translation totals, merged per-run
    histograms, mismatches, wall time and synthesis-cache counters.
    Raises [Invalid_argument] on an unknown pass in the schedule. *)
