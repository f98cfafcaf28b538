(** Performance tooling behind [vmht perf snapshot] and
    [vmht perf micro]. *)

val micro : string list -> int
(** Run the micro-benchmark targets whose name contains one of the
    filters (every target when the list is empty) and print their
    estimates.  Returns the exit code: 1, with a message on stderr,
    when no target matches. *)

val snapshot : unit -> Vmht_obs.Json.t
(** Time every experiment at the current pool width, print the
    progress, the cache and pass counters and every micro estimate,
    and return the [vmht-bench-eval/2] manifest. *)
