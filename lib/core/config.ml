(* Which executor runs the synthesized hardware thread: the model-level
   FSM executor, or the RTL evaluator running the emitted Verilog text
   itself.  Both sit on the same lib/mem + lib/vm stack; the backends
   are contractually cycle- and result-identical, and the rtl1
   experiment enforces it. *)
type backend = Model | Rtl

type t = {
  phys_bytes : int;
  page_shift : int;
  va_bits : int;
  dram : Vmht_mem.Dram.config;
  bus_arbitration_cycles : int;
  cache : Vmht_mem.Cache.config;
  resources : Vmht_hls.Schedule.resources;
  unroll : int;
  accel_mem_ports : int;
  mmu : Vmht_vm.Mmu.config;
  tlb2 : Vmht_vm.Tlb2.config;
  accel_stream_buffer : Vmht_mem.Cache.config;
  scratchpad_words : int;
  dma_setup_cycles : int;
  dma_burst_words : int;
  pin_cycles_per_page : int;
  wrapper_windows : int;
  opt_level : int;
  passes : string list option;
  cache_maintenance_cycles : int;
  fault : Vmht_fault.Plan.t;
  seed : int;
  fastpath : bool;
  backend : backend;
}

let default =
  {
    phys_bytes = 64 * 1024 * 1024;
    page_shift = 12;
    va_bits = 26;
    dram = Vmht_mem.Dram.default_config;
    bus_arbitration_cycles = 2;
    cache = Vmht_mem.Cache.default_config;
    resources =
      {
        Vmht_hls.Schedule.default_resources with
        Vmht_hls.Schedule.mem = Vmht_hls.Schedule.flat_mem 2;
      };
    unroll = 1;
    accel_mem_ports = 2;
    mmu = Vmht_vm.Mmu.default_config;
    tlb2 = Vmht_vm.Tlb2.default_config;
    (* The VM wrapper's stream buffer: a small write-back cache that
       turns streaming word accesses into bus bursts.  Copy-based
       wrappers get the same effect from their scratchpad. *)
    accel_stream_buffer =
      {
        Vmht_mem.Cache.size_bytes = 4096;
        line_bytes = 32;
        ways = 4;
        hit_latency = 1;
      };
    scratchpad_words = 1 lsl 16; (* 512 KiB window budget (Zynq-class) *)
    dma_setup_cycles = 120;
    dma_burst_words = 64;
    pin_cycles_per_page = 40;
    (* Address-window comparator bank of the DMA wrapper.  Lives in
       the config (not as a per-call optional) so the synthesis cache
       key has a single source of truth. *)
    wrapper_windows = 3;
    opt_level = 2;
    passes = None;
    cache_maintenance_cycles = 64;
    fault = Vmht_fault.Plan.none;
    seed = 1;
    (* Trace-compiled simulator fast path (single-runnable wait
       batching, steady-state accelerator traces, memoized
       translation).  Observationally identical — cycle counts and
       outputs do not depend on it — so it defaults on; --no-fastpath
       is the escape hatch and the abl7 ablation proves the claim. *)
    fastpath = true;
    backend = Model;
  }

let with_tlb_entries t entries =
  let mmu =
    {
      t.mmu with
      Vmht_vm.Mmu.tlb = { t.mmu.Vmht_vm.Mmu.tlb with Vmht_vm.Tlb.entries };
    }
  in
  { t with mmu }

let with_tlb2 t tlb2 = { t with tlb2 }

let with_walk_cache t entries =
  { t with mmu = { t.mmu with Vmht_vm.Mmu.walk_cache_entries = entries } }

let with_page_shift t page_shift = { t with page_shift }

let with_unroll t unroll = { t with unroll }

(* Re-bank the scratchpad, keeping per-bank porting: [n] word-interleaved
   banks, each with the current ports-per-bank; the outstanding-miss
   limit scales with the total port count.  [with_banks t 1] is the
   default flat memory (identical fingerprint). *)
let with_banks t banks =
  if banks < 1 then invalid_arg "Config.with_banks: banks must be >= 1";
  let m = t.resources.Vmht_hls.Schedule.mem in
  let ppb = m.Vmht_hls.Schedule.ports_per_bank in
  let mem =
    {
      m with
      Vmht_hls.Schedule.banks;
      Vmht_hls.Schedule.miss_limit = banks * ppb;
    }
  in
  { t with resources = { t.resources with Vmht_hls.Schedule.mem } }

(* Simulator-side width of the accelerator's memory interface: wide
   enough for both the wrapper's outstanding-access budget and the peak
   issue width the schedule was arbitrated for. *)
let accel_width t =
  max t.accel_mem_ports
    (Vmht_hls.Schedule.mem_total_ports t.resources.Vmht_hls.Schedule.mem)

let with_fault t fault = { t with fault }

let with_seed t seed = { t with seed }

let with_opt_level t opt_level = { t with opt_level }

let with_windows t wrapper_windows = { t with wrapper_windows }

let with_fastpath t fastpath = { t with fastpath }

let with_backend t backend = { t with backend }

let with_passes t passes = { t with passes }

(* The active schedule: an explicit pass list overrides the preset.
   Unknown pass names are a configuration error, reported eagerly. *)
let schedule t =
  match t.passes with
  | None -> Vmht_ir.Pass_manager.of_opt_level t.opt_level
  | Some names -> (
    match Vmht_ir.Pass_manager.of_names names with
    | Ok s -> s
    | Error msg -> invalid_arg ("Config.schedule: " ^ msg))

(* Every field, spelled out: the fingerprint keys the synthesis cache,
   so forgetting a field here would let two configs that synthesize
   differently share a cache slot.  Enumerating all of them (even the
   purely runtime ones like DRAM timings) trades a few spurious cache
   misses for immunity to that bug class. *)
let fingerprint (t : t) =
  let b = Buffer.create 160 in
  let i v = Buffer.add_string b (string_of_int v); Buffer.add_char b ';' in
  let f v = Buffer.add_string b (string_of_bool v); Buffer.add_char b ';' in
  i t.phys_bytes;
  i t.page_shift;
  i t.va_bits;
  (let d = t.dram in
   i d.Vmht_mem.Dram.t_cas;
   i d.Vmht_mem.Dram.t_rcd;
   i d.Vmht_mem.Dram.t_rp;
   i d.Vmht_mem.Dram.row_bytes;
   i d.Vmht_mem.Dram.banks);
  i t.bus_arbitration_cycles;
  let cache (c : Vmht_mem.Cache.config) =
    i c.Vmht_mem.Cache.size_bytes;
    i c.Vmht_mem.Cache.line_bytes;
    i c.Vmht_mem.Cache.ways;
    i c.Vmht_mem.Cache.hit_latency
  in
  cache t.cache;
  (let r = t.resources in
   i r.Vmht_hls.Schedule.alu;
   i r.Vmht_hls.Schedule.cmp;
   i r.Vmht_hls.Schedule.mul;
   i r.Vmht_hls.Schedule.div;
   i r.Vmht_hls.Schedule.shift;
   (let m = r.Vmht_hls.Schedule.mem in
    i m.Vmht_hls.Schedule.banks;
    i m.Vmht_hls.Schedule.ports_per_bank;
    i m.Vmht_hls.Schedule.interleave_shift;
    i m.Vmht_hls.Schedule.miss_limit));
  i t.unroll;
  i t.accel_mem_ports;
  (let m = t.mmu in
   i m.Vmht_vm.Mmu.tlb.Vmht_vm.Tlb.entries;
   i m.Vmht_vm.Mmu.tlb.Vmht_vm.Tlb.assoc;
   Buffer.add_string b
     (match m.Vmht_vm.Mmu.tlb.Vmht_vm.Tlb.policy with
      | Vmht_vm.Tlb.Lru -> "lru;"
      | Vmht_vm.Tlb.Fifo -> "fifo;");
   f m.Vmht_vm.Mmu.hw_walk;
   i m.Vmht_vm.Mmu.tlb_hit_cycles;
   i m.Vmht_vm.Mmu.sw_refill_penalty;
   i m.Vmht_vm.Mmu.fault_penalty;
   i m.Vmht_vm.Mmu.walk_cache_entries);
  (let l2 = t.tlb2 in
   f l2.Vmht_vm.Tlb2.enabled;
   i l2.Vmht_vm.Tlb2.entries;
   i l2.Vmht_vm.Tlb2.assoc;
   Buffer.add_string b
     (match l2.Vmht_vm.Tlb2.policy with
      | Vmht_vm.Tlb.Lru -> "lru;"
      | Vmht_vm.Tlb.Fifo -> "fifo;");
   i l2.Vmht_vm.Tlb2.hit_cycles);
  cache t.accel_stream_buffer;
  i t.scratchpad_words;
  i t.dma_setup_cycles;
  i t.dma_burst_words;
  i t.pin_cycles_per_page;
  i t.wrapper_windows;
  i t.cache_maintenance_cycles;
  Buffer.add_string b (Vmht_fault.Plan.fingerprint t.fault);
  (* The pass schedule changes the synthesized datapath, so it must key
     the cache: [-O1] and [-O2] results can never be conflated. *)
  i t.opt_level;
  Buffer.add_string b
    (match t.passes with
     | None -> "preset;"
     | Some names -> "passes:" ^ String.concat "," names ^ ";");
  i t.seed;
  (* Purely a runtime toggle, but the all-fields policy wins: a
     spurious cache miss is cheaper than a forgotten field. *)
  f t.fastpath;
  Buffer.add_string b
    (match t.backend with Model -> "model;" | Rtl -> "rtl;");
  Buffer.contents b

let digest t = Digest.to_hex (Digest.string (fingerprint t))

let to_string t =
  Printf.sprintf
    "page=%dB tlb=%d entries (hw_walk=%b) cache=%dB unroll=%d ports=%d \
     scratchpad=%d words"
    (1 lsl t.page_shift) t.mmu.Vmht_vm.Mmu.tlb.Vmht_vm.Tlb.entries
    t.mmu.Vmht_vm.Mmu.hw_walk t.cache.Vmht_mem.Cache.size_bytes t.unroll
    t.accel_mem_ports t.scratchpad_words
