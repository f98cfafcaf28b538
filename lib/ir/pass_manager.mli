(** Pass scheduling: run an ordered list of registered passes to a
    bounded joint fixpoint, verifying the IR between passes.

    Schedules come from three places: the [-O0]/[-O1]/[-O2] presets
    ({!of_opt_level}), an explicit pass list ({!of_names}, backing the
    CLIs' [--passes a,b,c]), or directly from {!Pass.t} values.  The
    report records per-pass run and rewrite counts so callers (HLS
    statistics, the bench manifest, the opt-level ablation) can
    attribute the work.

    Linking this module registers every builtin pass
    ({!Passes.register_builtins}). *)

type schedule = {
  sname : string;  (** display name: ["O0"], ["O2"], ["custom:..."] *)
  passes : Pass.t list;  (** run in order, repeated to a fixpoint *)
}

val o0 : unit -> schedule
(** No optimization: the IR is synthesized as lowered. *)

val o1 : unit -> schedule
(** Fast cleanup: const_fold, copy_prop, dce, simplify_cfg. *)

val o2 : unit -> schedule
(** Everything, including the memory passes and licm. *)

val of_opt_level : int -> schedule
(** Clamped: [<= 0] is {!o0}, [1] is {!o1}, [>= 2] is {!o2}. *)

val of_names : string list -> (schedule, string) result
(** Resolve an explicit pass list against the registry; [Error msg]
    names the first unknown pass. *)

type pass_stat = {
  pass : string;
  runs : int;  (** fixpoint iterations this pass executed in *)
  rewrites : int;  (** total rewrites across those runs *)
}

type report = {
  schedule_name : string;
  iterations : int;
  stats : pass_stat list;  (** in schedule order *)
  instrs_before : int;
  instrs_after : int;
  blocks_before : int;
  blocks_after : int;
  verify_calls : int;
      (** {!Verify.run} calls: one on the input plus one after every
          pass application, or 0 with [~verify:false] *)
}

val run : ?verify:bool -> ?max_iterations:int -> schedule -> Ir.func -> report
(** Apply the schedule in order, repeating until one full round makes
    no rewrite (or [max_iterations], default 20, rounds have run).
    With [verify] (the default) the {!Verify} checker runs after every
    pass application and failures are re-raised as [Failure] naming the
    offending pass. *)

val optimize : ?schedule:schedule -> Ir.func -> report
(** [run] under the default ({!o2}) schedule. *)

val rewrites : report -> string -> int
(** Total rewrites a named pass performed, 0 if not in the schedule. *)

val report_to_string : report -> string

type totals = {
  per_pass : pass_stat list;  (** sorted by pass name *)
  verify_calls : int;
}

val totals : unit -> totals
(** Process-wide accumulated per-pass runs and rewrites, and verifier
    calls, across every {!run} since startup (or {!reset_totals}).
    Sums are commutative, so the totals are deterministic under any
    parallel evaluation order.  Feeds the bench manifest's
    [pass_stats]. *)

val reset_totals : unit -> unit
