(** Dense view of a function's control-flow graph: blocks numbered by
    their position in [f.blocks] (the entry is 0), successor edges as
    positions.  Built once per analysis so the dataflow loops index
    arrays instead of searching labels. *)

type t = private {
  blocks : Ir.block array;
  succs : int array array;  (** successor positions, in {!Ir.successors} order *)
  index : int array;  (** label -> position, [-1] where no block has it *)
}

val of_func : Ir.func -> t
(** Raises [Not_found] when a terminator targets a label with no block. *)

val position : t -> Ir.label -> int
(** Position of the block with this label, or [-1]. *)

val reachable : t -> bool array
(** By position: is the block reachable from the entry? *)
