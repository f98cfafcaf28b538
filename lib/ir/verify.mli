(** IR verifier.

    A stricter check than {!Ir.validate}, run by {!Pass_manager} on its
    input and after every pass application: CFG well-formedness (unique
    labels, resolvable branch targets, entry block first), register/label
    counters consistent with the function's allocators, def-before-use
    on every path from the entry (via {!Liveness}), entry domination of
    every reachable block (via {!Dominators}), and return-arity
    agreement with [returns_value] on reachable blocks.  Messages are
    formatted only when a check fails. *)

exception Error of string

val check : Ir.func -> (unit, string) result
(** Run all checks; [Error msg] describes the first violation. *)

val run : Ir.func -> unit
(** Like {!check} but raises {!Error} on violation — the form used by
    {!Pass_manager} between passes. *)
