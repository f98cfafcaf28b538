(** Loop pipelining by (simplified) iterative modulo scheduling, as a
    static analysis.  Synthesis never applies a plan: the emitted FSM
    and both executors run loops unpipelined.  The plans feed the
    [abl4] estimate only.

    For every innermost loop of the canonical two-block shape

    {v  header: <condition instrs>; br cond ? body : exit
        body:   <instrs>;           jmp header              v}

    the pipeliner computes an initiation interval [II] and a pipeline
    depth such that one iteration can be *initiated* every [II] cycles:

    - resource constraints: per modulo slot, class usage stays within
      the FU budget, and memory slots additionally pass the
      {!Schedule.Bank} arbitration of the configured
      {!Schedule.mem_model} (bank pressure raises the
      resource-constrained minimum II: a set of mutually conflicting
      accesses needs [ceil (size / ports_per_bank)] slots);
    - register recurrences: a value produced in one iteration and
      consumed in the next constrains [II] by the producer's latency
      plus the longest intra-iteration dependence path back to the
      producer (the recurrence-constrained minimum II, reported as
      [rec_mii]);
    - memory recurrences: stores conservatively recur against every
      load/store of the next iteration *unless* both addresses are
      provably streaming — [invariant_base + (induction << 3)] with
      distinct base registers — in which case iterations are assumed
      disjoint (the `restrict` discipline real HLS demands, documented
      in LANGUAGE.md).  Loop-carried load/store chains therefore bound
      the II through [rec_mii] like register recurrences do.

    [unpipelined_cycles / ii] bounds what overlapping iterations could
    gain per iteration; no cycle count is simulated from a plan. *)

type plan = {
  header : Vmht_ir.Ir.label;
  body : Vmht_ir.Ir.label;
  exit : Vmht_ir.Ir.label;
  ii : int;
  depth : int;
  unpipelined_cycles : int; (** header + body makespans, for reports *)
  rec_mii : int;
      (** recurrence-constrained minimum II (register and memory
          loop-carried chains) *)
  res_mii : int;
      (** resource-constrained minimum II, including bank pressure *)
}

val plan_loops :
  Vmht_ir.Ir.func -> resources:Schedule.resources -> plan list
(** Plans for every pipelinable loop where pipelining helps
    ([ii < unpipelined_cycles]). *)
