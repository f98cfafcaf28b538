(** Process-wide simulator phase profile: where simulated cycles and
    host time go, by engine phase.

    The engine (lib/sim) attributes every advance of simulated time to
    the phase of the event that consumed it — {!Dispatch} for plain
    engine bookkeeping, {!Actor}/{!Memory}/{!Translate} for code run
    under [Engine.with_phase] — and flushes per-run deltas here.  The
    per-phase cycle counts partition each profiled engine's timeline
    exactly: their sum equals [engine_cycles].  Host nanoseconds are
    sampled every 64th dispatch and are approximate.

    Disabled by default; {!enable} before creating engines (the hook
    is bound at [Engine.create]). *)

type phase = Dispatch | Actor | Memory | Translate

val n_phases : int

val phase_index : phase -> int

type totals = {
  cycles : int array;  (** per phase, indexed by {!phase_index}; exact *)
  host_ns : float array;  (** per phase; sampled, approximate *)
  dispatches : int;
  engine_cycles : int;  (** summed final simulated time of profiled engines *)
  engines : int;  (** profiled engine-run flushes observed *)
  batch : Histogram.t;  (** same-timestamp dispatch batch sizes *)
}

val enable : bool -> unit
(** Enabling also resets the accumulator. *)

val enabled : unit -> bool

val reset : unit -> unit

val flush :
  cycles:int array ->
  host_ns:float array ->
  dispatches:int ->
  engine_cycles:int ->
  engines:int ->
  batch:Histogram.t ->
  unit
(** Add one engine's deltas (called by the engine, not by users). *)

val totals : unit -> totals
(** A consistent copy of the accumulator. *)

val cycle_sum : totals -> int
(** Sum of the per-phase cycles; equals [engine_cycles] by
    construction. *)

val fields : totals -> (string * Json.t) list
(** The profile's manifest fields (the [vmht-profile/1] body, after
    the {!Manifest} header). *)

val render : totals -> string
(** Phase table plus the dispatch-batch summary. *)
