(** Causal spans over the host-side pipeline (parse, passes, schedule,
    emit, simulate) and the parallel evaluation harness.

    Disabled by default and free when disabled ({!with_span} is a
    single atomic read).  When enabled, each span records wall-clock
    nanoseconds, the enclosing span on the same domain as [parent],
    an optional cross-domain [flow_from] edge (the span that submitted
    this work to the pool), and global begin/end sequence numbers that
    witness well-formed nesting independently of the clock.

    Thread ids: the main domain reports tid 0; pool workers call
    {!set_tid} once with a stable small id so a [-j N] run renders as
    [N] named tracks in the Chrome-trace export
    ({!Chrome_trace.of_spans}), with flow arrows from the submitting span
    to each task. *)

type t = {
  id : int;
  parent : int option;  (** enclosing span, same tid *)
  flow_from : int option;  (** submitting span, usually another tid *)
  tid : int;
  name : string;
  cat : string;
  t0_ns : int;
  t1_ns : int;
  seq0 : int;  (** global begin order *)
  seq1 : int;  (** global end order *)
}

val enable : bool -> unit
(** Enabling also clears previously collected spans. *)

val enabled : unit -> bool

val with_span : ?cat:string -> ?flow_from:int -> string -> (unit -> 'a) -> 'a
(** Run the thunk inside a span.  When disabled, calls it directly. *)

val current_span_id : unit -> int option
(** The innermost open span on this domain (for {!with_span}'s
    [flow_from] when handing work to another domain). *)

val set_tid : int -> unit
(** Fix this domain's thread id for all subsequent spans. *)

val spans : unit -> t list
(** Every completed span, sorted by begin order. *)

val reset : unit -> unit
