(* Process-wide translation-hierarchy totals.

   Each SoC flushes its L2-TLB and walk-cache counter deltas here when a
   run completes; [Experiment.bench] reads the sums for its manifest.  Plain
   integer sums over atomics are order-independent, so the totals are
   identical at any domain-pool width. *)

type totals = {
  tlb2_lookups : int;
  tlb2_hits : int;
  tlb2_evictions : int;
  walk_cache_hits : int;
  walk_cache_misses : int;
}

let zero =
  {
    tlb2_lookups = 0;
    tlb2_hits = 0;
    tlb2_evictions = 0;
    walk_cache_hits = 0;
    walk_cache_misses = 0;
  }

let sub a b =
  {
    tlb2_lookups = a.tlb2_lookups - b.tlb2_lookups;
    tlb2_hits = a.tlb2_hits - b.tlb2_hits;
    tlb2_evictions = a.tlb2_evictions - b.tlb2_evictions;
    walk_cache_hits = a.walk_cache_hits - b.walk_cache_hits;
    walk_cache_misses = a.walk_cache_misses - b.walk_cache_misses;
  }

let lookups = Atomic.make 0
let hits = Atomic.make 0
let evictions = Atomic.make 0
let wc_hits = Atomic.make 0
let wc_misses = Atomic.make 0

let add d =
  if d <> zero then begin
    ignore (Atomic.fetch_and_add lookups d.tlb2_lookups);
    ignore (Atomic.fetch_and_add hits d.tlb2_hits);
    ignore (Atomic.fetch_and_add evictions d.tlb2_evictions);
    ignore (Atomic.fetch_and_add wc_hits d.walk_cache_hits);
    ignore (Atomic.fetch_and_add wc_misses d.walk_cache_misses)
  end

let totals () =
  {
    tlb2_lookups = Atomic.get lookups;
    tlb2_hits = Atomic.get hits;
    tlb2_evictions = Atomic.get evictions;
    walk_cache_hits = Atomic.get wc_hits;
    walk_cache_misses = Atomic.get wc_misses;
  }

let reset () =
  Atomic.set lookups 0;
  Atomic.set hits 0;
  Atomic.set evictions 0;
  Atomic.set wc_hits 0;
  Atomic.set wc_misses 0
