(** Backward liveness dataflow over the CFG. *)

module Regset : Set.S with type elt = Ir.reg

type t

val compute : Ir.func -> t
(** Registers must lie in [[0, f.next_reg)], as {!Verify} checks;
    others may raise [Invalid_argument]. *)

val live_in : t -> Ir.label -> Regset.t

val live_out : t -> Ir.label -> Regset.t

val live_after_each : t -> Ir.block -> Regset.t array
(** [live_after_each info b] gives, for every instruction position [i]
    in [b.instrs], the set of registers live immediately after that
    instruction (terminator uses included).  Used by dead-code
    elimination and by register binding. *)

val max_live : Ir.func -> t -> int
(** The maximum number of simultaneously live registers at any
    instruction boundary — an estimate of datapath register pressure. *)
