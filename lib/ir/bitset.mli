(** Dense mutable bitsets over [[0, n)], one [int] word per
    [Sys.int_size] elements.  The dataflow analyses keep one per block
    and update them word by word, so a fixpoint round allocates
    nothing. *)

type t = int array

val create : int -> t
(** The empty set with room for [[0, n)]. *)

val word_bits : int

val add : t -> int -> unit

val mem : t -> int -> bool

val fold : (int -> 'a -> 'a) -> t -> 'a -> 'a
(** Over the members in ascending order. *)
