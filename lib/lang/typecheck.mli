(** Static checks for HTL kernels.

    The type system is intentionally small but strict: words and
    pointers do not mix without a cast, indexing needs a pointer base
    and an integer index, conditions are integers, comparisons need
    identically-typed operands, and every variable is declared exactly
    once per scope before use.  [return]s must agree with the kernel's
    declared result type, and a kernel with a result type must return
    on every path. *)

val check_kernel : Ast.kernel -> unit
(** Raises {!Loc.Error} describing the first violation found.  Calls
    are rejected here — kernels with calls must be checked as part of a
    program ({!check_program}) and inlined ({!Inline}) before any
    kernel-level processing. *)

val check_program : Ast.program -> unit
(** Checks each kernel with the whole program's kernels callable,
    rejects duplicate kernel names, calls to unknown or void kernels,
    argument-type mismatches, calls in expression (non-RHS) position,
    and (mutual) recursion. *)

val called_names : string list -> Ast.stmt list -> string list
(** Kernel names called anywhere in a statement list, prepended to the
    accumulator (exposed for the inliner). *)
