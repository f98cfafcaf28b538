(** Minimal JSON representation, serializer and parser.

    The observability layer has to emit (and the test suite re-read)
    Chrome-trace and metrics documents without external dependencies,
    so this module implements the small JSON subset those need: the
    full value grammar, UTF-8 pass-through strings with standard
    escapes, and exact integers alongside floats. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

exception Parse_error of string
(** Raised by {!of_string} with a message and byte offset. *)

val to_string : t -> string
(** Compact single-line rendering. *)

val to_string_pretty : t -> string
(** Two-space-indented rendering, newline-terminated. *)

val write_file : string -> t -> (unit, string) result
(** [write_file path v] writes {!to_string_pretty} [v] to [path].
    [Error msg] carries the system message (which names [path]) when
    the file cannot be opened or written; the channel is closed on
    every path. *)

val of_string : string -> t
(** Parse a complete document (trailing garbage is an error). *)

(** {2 Accessors} (total: [None] on shape mismatch) *)

val member : string -> t -> t option

val index : int -> t -> t option

val to_int : t -> int option

val to_float : t -> float option
(** Also accepts [Int]. *)

val to_str : t -> string option

val to_list : t -> t list option
