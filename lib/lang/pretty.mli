(** Pretty-printer for HTL.  The output re-parses to a structurally
    identical AST (round-trip property checked in the test suite). *)

val expr_to_string : Ast.expr -> string

val program_to_string : Ast.program -> string
