(** Chrome-trace (Perfetto / chrome://tracing) export: the one writer
    of the format, for typed simulation events ({!to_json}) and for
    host-time spans ({!of_spans}).

    The emitted document is the standard JSON object format: a
    ["traceEvents"] array whose entries carry ["ph"]/["ts"]/["pid"]/
    ["tid"] fields.  For events, the SoC is one process; every component instance
    ("bus", "mmu", "accel", ...) gets its own named thread track.
    Span events (duration > 0) become complete events (["ph"] = "X"),
    everything else a thread-scoped instant (["ph"] = "i").
    Timestamps are simulation cycles. *)

val to_json : ?process_name:string -> ?pid:int -> Event.t list -> Json.t

val of_spans : ?process_name:string -> ?pid:int -> Span.t list -> Json.t
(** Host-time spans in the same format, timestamps in microseconds:
    ["X"] complete events, one thread track per domain ("main",
    "worker-N"), and ["s"]/["f"] flow pairs for cross-track
    [flow_from] edges. *)
