(** HDR-style log-bucketed integer histogram.

    Buckets 0..15 are unit-width (exact small values); above that,
    each power-of-two range is split into 16 sub-buckets, so every
    recorded value is represented with relative error at most 1/16
    while 944 fixed buckets cover all non-negative OCaml ints.
    Observation is O(1) (a bit-scan and an array increment); there is
    no allocation after {!create}.

    Histograms are not thread-safe; aggregation across domains goes
    through {!merge_into} under the caller's lock. *)

type t

val create : unit -> t

val reset : t -> unit

val observe : t -> int -> unit
(** Record one sample (clamped below at 0). *)

val count : t -> int

val sum : t -> int

val min_value : t -> int
(** 0 when empty. *)

val max_value : t -> int

val merge_into : src:t -> dst:t -> unit
(** Add every sample of [src] into [dst] ([src] unchanged). *)

val copy : t -> t

val quantile : t -> float -> int
(** [quantile t q] is an inclusive upper bound on the q-quantile: the
    upper edge of the first bucket whose cumulative count reaches rank
    [q * count], clamped to the observed maximum. *)

val nonzero_buckets : t -> (int * int) list
(** [(inclusive upper bound, count)] for populated buckets, ascending. *)

(** {2 Bucket geometry} (exposed for tests and for the metrics layer) *)

val bucket_index : int -> int

val bucket_lower : int -> int

val bucket_upper : int -> int

(** {2 Summaries} *)

type summary = {
  count : int;
  sum : int;
  mean : float;
  min : int;
  max : int;
  p50 : int;
  p90 : int;
  p95 : int;
  p99 : int;
}

val summary : t -> summary

val summary_to_json : summary -> Json.t
(** Fixed field order — byte-stable across runs. *)

val summary_to_string : summary -> string
(** One compact line: [n= sum= min= p50<= p90<= p99<= max=]. *)
