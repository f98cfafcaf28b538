(** The typed structured event schema of the observability layer.

    Every simulated component reports what it did as one of these
    constructors instead of a rendered string, so exporters (the
    Chrome-trace writer, the CLI's trace dump, metrics feeds) can
    dispatch on the event without re-parsing text.  An event carries
    the component instance that produced it, its start cycle and, for
    span-like events (bus transactions, page-table walks, DMA bursts,
    faults), a duration in cycles. *)

type mem_op = Read | Write

type kind =
  | Tlb_hit of { vaddr : int; asid : int }
  | Tlb_miss of { vaddr : int; asid : int }
  | Tlb2_hit of { vaddr : int; asid : int }
      (** L1 miss answered by the SoC-shared second-level TLB; the
          duration is the L2 probe latency *)
  | Tlb2_miss of { vaddr : int; asid : int }
      (** both TLB levels missed; a page-table walk follows *)
  | Ptw_walk of { vaddr : int; levels : int }
      (** [levels] = page-table levels read during the walk *)
  | Page_fault of { vaddr : int; asid : int }
  | Bus_txn of { op : mem_op; addr : int; words : int }
  | Dram_row_hit of { bank : int }
  | Dram_row_miss of { bank : int }
  | Dma_burst of { op : mem_op; words : int }
      (** [Read] stages data in from DRAM, [Write] drains it out *)
  | Cache_hit of { op : mem_op; addr : int }
  | Cache_miss of { op : mem_op; addr : int }
  | Fsm_state of { block : string }  (** accelerator FSM block entry *)
  | Phase_begin of { phase : string }
  | Phase_end of { phase : string }
  | Thread_spawn of { thread : string }
  | Thread_join of { thread : string }
  | Fault_inject of { target : string; fault : string }
      (** an injected perturbation absorbed locally; the duration is
          the stall it cost *)
  | Fault_retry of { target : string; fault : string; attempt : int }
      (** one bounded-retry round recovering from a transient fault *)
  | Fault_abort of { target : string; fault : string }
      (** unrecoverable at component level; the owning thread re-runs *)
  | Fault_recover of { target : string; fault : string; attempt : int }
      (** thread-level recovery completed after [attempt] re-runs *)
  | Pass_run of { pass : string; rewrites : int; kernel : string }
      (** one optimizer pass applied during synthesis of [kernel];
          reported when the synthesized thread is launched *)
  | Note of string  (** escape hatch for ad-hoc annotations *)

type t = {
  at : int;  (** start cycle *)
  duration : int;  (** 0 for instantaneous events *)
  component : string;  (** producing component instance, e.g. "bus" *)
  kind : kind;
}

type emitter = ?duration:int -> kind -> unit
(** The observer hook components call: the installer (the SoC) stamps
    the cycle and routes the event to the trace ring and metrics. *)

val label : kind -> string
(** Stable snake_case tag of the constructor ("tlb_miss", "bus_txn",
    ...), used for filtering and as the Chrome-trace event name. *)

val args : kind -> (string * Json.t) list
(** The payload as JSON fields (the Chrome-trace ["args"] object). *)

val kind_to_string : kind -> string

val to_string : t -> string
(** One human-readable line: cycle, component, detail. *)
