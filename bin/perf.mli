(** Bechamel micro-benchmarks behind [vmht perf micro] and
    [vmht perf snapshot]. *)

val micro : string list -> int
(** Run the micro-benchmark targets whose name contains one of the
    filters (every target when the list is empty) and print their
    estimates.  Returns the exit code: 1, with a message on stderr,
    when no target matches. *)

val micro_all : unit -> Vmht_obs.Json.t
(** Run every target, print each estimate, and return them as the
    snapshot manifest's [micro] array of [{name, ns_per_run}]. *)
