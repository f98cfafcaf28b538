(** Executing a thread on the SoC in each of the paper's three styles:
    software on the CPU, copy-based (DMA) hardware thread, VM-enabled
    hardware thread.

    All [run_*] functions must be called in simulation-process context
    (use {!run_to_completion} or [Vmht_rt.Hthreads] to get there);
    they return cycle-accurate results with a phase breakdown. *)

type dir = In | Out | InOut

type buffer = { base : int; words : int; dir : dir }
(** A data region the thread works on.  [base] is a page-aligned
    virtual address.  Only the DMA style uses the direction (what to
    stage in and drain out); the VM style touches memory directly. *)

type request = { args : int list; buffers : buffer list }

type breakdown = {
  stage_cycles : int; (** pinning + copy-in (DMA); 0 otherwise *)
  compute_cycles : int;
  drain_cycles : int; (** copy-out + cache maintenance *)
}

type result = {
  ret : int option;
  total_cycles : int;
  phases : breakdown;
  attribution : Vmht_obs.Attribution.t;
      (** disjoint per-phase cycle split; sums to [total_cycles] *)
  mmu_stats : Vmht_vm.Mmu.stats option; (** VM style only *)
  tlb_hit_rate : float option;
  accel_stats : Vmht_hls.Accel.run_stats option; (** hardware styles *)
  page_faults : int;
}

exception Window_overflow of string
(** The DMA style's buffers exceed the scratchpad capacity — the
    failure mode VM-enabled threads do not have. *)

val run_sw : Soc.t -> Vmht_ir.Ir.func -> request -> result

val run_hw : Soc.t -> Flow.hw_thread -> request -> result
(** Dispatch on the thread's wrapper style, with thread-level fault
    recovery: if an injected {!Vmht_fault.Injector.Abort} escapes the
    run (a DMA transfer abort), the whole attempt is re-run until it
    completes — termination is guaranteed by the plan's injection
    budget.  Cycles lost to discarded attempts are added to
    [total_cycles] and the [fault] attribution bucket, and the final
    success emits a [Fault_recover] event. *)

val run_to_completion : Soc.t -> (unit -> 'a) -> 'a
(** Run [main] as the root process until the system quiesces and
    return its value (re-raising its exception, if any). *)
