(** Clocked evaluator for parsed emitted modules.

    Compiles an {!Ast.t} once ({!compile}) and executes it edge by edge against the same
    {!Vmht_hls.Accel.port} memory interface the model-level executor
    uses, so translation, banking, and fault draws are shared between
    backends and any divergence is the emitter's.

    Per-channel handshake contract (the adapter side of what the
    emitter writes): a request sampled high on an idle channel is
    accepted, its access is serviced through the port, and [ack] (plus
    [rdata] for loads) is presented and *held* until the FSM is seen
    with the request deasserted.  Same-cycle accesses are serviced as
    [ports]-wide lanes through {!Vmht_hls.Accel.chunks} and
    {!Vmht_sim.Engine.join_all} — the exact grouping and event order
    of the model's memory cycle — so cycle counts match, not just
    results.

    Edge accounting: the entry edge of a state costs one cycle (pure
    states advance simulated time by one; memory states advance it by
    the lane latency), the edge that consumes a held ack is free (it
    coalesces into the access latency), and the S_IDLE/S_DONE
    handshake edges are free, matching the model's zero dispatch cost.

    X discipline: registers power up X.  X flows silently through
    datapath arithmetic but is a hard {!Rtl_error} when it reaches the
    state register, a branch or ternary condition, [done], a sampled
    request line, or the address/strobe/data of an accepted request —
    which is what makes missing-reset emitter bugs observable. *)

exception Rtl_error of string

type outcome = {
  result : int option;  (** [result] output at [done]; [None] when X *)
  requests : int;  (** channel requests the adapter accepted *)
  edges : int;  (** clock edges evaluated *)
}

type program
(** A module compiled for execution: every register, port, [argN] and
    localparam resolved to a slot of an [int] register file with a
    known/X/undefined tag, each expression a closure with its operator
    and signedness fixed, case arms indexed by state value, and each
    channel's [req/we/addr/wdata/ack/rdata] slots precomputed.
    Immutable, so one program may run in many domains at once. *)

val compile : Ast.t -> program
(** Compile a parsed module.  Never raises: a module that cannot run
    (a case label that is not a localparam, a missing [S_IDLE]/[S_DONE],
    an unrecognized channel prefix) compiles to a program whose {!run}
    raises the error, and expression-level failures (unknown
    identifiers, unsupported concatenations, assignments to
    non-registers) are raised only if the offending code executes. *)

val run :
  ?stats:Vmht_hls.Accel.run_stats ->
  ?ports:int ->
  ?max_edges:int ->
  program ->
  port:Vmht_hls.Accel.port ->
  args:int list ->
  outcome
(** Run a compiled module to [done].  [stats] accumulates
    loads/stores/fsm_cycles with the model's meanings; [ports] is the
    same-cycle memory lane width (default 1); [max_edges] bounds the
    run (default 50M edges) so emitter bugs that deadlock or spin the
    FSM fail loudly instead of hanging.  Raises {!Rtl_error} on
    protocol or X violations, [Invalid_argument] on an argument-count
    mismatch, and lets port-side exceptions (faults, aborts) pass
    through unchanged.  An unrecognized channel prefix is raised before
    the argument count is checked; the module's other errors after. *)
