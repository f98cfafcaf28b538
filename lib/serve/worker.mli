(** The worker side of the batch server: a forked child that reads
    framed {!Proto.request}s from a pipe, runs the handler, and writes
    framed {!Proto.reply}s back, forever, until EOF on its request
    pipe (the server closing it is the shutdown signal).

    The default handler covers [Synthesize] jobs through the flow (and
    whatever store the parent installed before forking — the child
    inherits it); servers whose requests include [Execute] jobs inject
    a handler built where the workload registry is visible (the eval
    layer), which keeps this library free of a dependency cycle. *)

val default_handle : Proto.request -> Proto.outcome
(** [Synthesize] via {!Vmht.Flow.run}; [Failed] for [Execute]. *)

val loop :
  handle:(Proto.request -> Proto.outcome) ->
  in_fd:Unix.file_descr ->
  out_fd:Unix.file_descr ->
  unit
(** Serve until EOF.  A handler exception becomes a [Failed] reply;
    the loop itself only exits on EOF or a dead reply pipe.  Runs in
    the forked child — callers follow it with [Unix._exit]. *)
