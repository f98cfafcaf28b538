(** The one header every manifest the tool writes starts with, so any
    bench, snapshot, profile, DSE or loadgen manifest traces back to
    its commit, pool width and configuration. *)

val git_rev : unit -> string
(** The commit checked out in the working directory, read straight
    from [.git] (no subprocess); ["unknown"] outside a checkout. *)

val make :
  schema:string -> jobs:int -> config:string -> (string * Json.t) list -> Json.t
(** [make ~schema ~jobs ~config fields]: an object of [schema],
    [git_rev], [jobs] and [config] (a config digest), then [fields]. *)
