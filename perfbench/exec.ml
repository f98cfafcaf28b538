(* One execution of a registry kernel on a fresh simulated SoC, split
   at the public calls the traced run times: SoC creation, workload
   set-up, the (memoized) synthesis, and the launch.  Shared by
   sim_mix and rtl_exec. *)

open Vmht
module Workload = Vmht_workloads.Workload

type mode = Sw of Vmht_ir.Ir.func | Hw of Wrapper.style

type point = {
  w : Workload.t;
  kernel : Vmht_lang.Ast.kernel;
  mode : mode;
  size : int;
  data_seed : int;
  config : Config.t;
  tag : string;  (** human-readable point description for failure reports *)
}

type run = {
  soc : Soc.t;
  instance : Workload.instance;
  result : Launch.result;
  luts : int;  (** of the hardware thread; 0 for software *)
}

let style_name = function Sw _ -> "sw" | Hw s -> Wrapper.style_name s

let synthesize p =
  match p.mode with
  | Sw _ -> None
  | Hw style ->
    Some (Flow.run_exn (Flow.Request.of_kernel ~config:p.config ~style p.kernel))

(* [launch] names the span around the launch: "core.launch" for the
   model executor, "rtl.run" for the RTL evaluator. *)
let run ~launch p =
  let soc = Tracer.span "core.soc_create" (fun () -> Soc.create p.config) in
  let instance =
    Tracer.span "workloads.setup" (fun () ->
        p.w.Workload.setup (Soc.aspace soc) ~size:p.size ~seed:p.data_seed)
  in
  let request =
    { Launch.args = instance.Workload.args; buffers = instance.Workload.buffers }
  in
  let hw = Tracer.span "core.flow_hit" (fun () -> synthesize p) in
  let result =
    Tracer.span launch (fun () ->
        Launch.run_to_completion soc (fun () ->
            match (p.mode, hw) with
            | Sw func, _ -> Launch.run_sw soc func request
            | Hw _, Some t -> Launch.run_hw soc t request
            | Hw _, None -> assert false))
  in
  let luts = match hw with Some t -> t.Flow.total_area.Vmht_hls.Optypes.lut | None -> 0 in
  { soc; instance; result; luts }

let correct r =
  Tracer.span "workloads.check" (fun () ->
      r.result.Launch.ret = r.instance.Workload.expected_ret
      && r.instance.Workload.check (Vmht_vm.Addr_space.load_word (Soc.aspace r.soc)))

(* Exact per-op counts, read from the layers' public stats records. *)
let account r =
  let c = Driver.count in
  let res = r.result in
  c "hw_cycles" res.Launch.total_cycles;
  c "hw_luts" r.luts;
  c "sim.cycles" res.Launch.total_cycles;
  List.iter
    (fun (k, v) -> c ("cycles." ^ k) v)
    (Vmht_obs.Attribution.to_list res.Launch.attribution);
  let engine = Soc.engine r.soc in
  c "sim.events" (Vmht_sim.Engine.events_executed engine);
  c "sim.fast_forwards" (Vmht_sim.Engine.fast_forwards engine);
  Option.iter
    (fun (m : Vmht_vm.Mmu.stats) ->
      c "vm.accesses" m.Vmht_vm.Mmu.accesses;
      c "vm.tlb_hits" m.Vmht_vm.Mmu.tlb_hits;
      c "vm.page_faults" m.Vmht_vm.Mmu.page_faults;
      c "vm.walk_cycles" m.Vmht_vm.Mmu.walk_cycles)
    res.Launch.mmu_stats;
  Option.iter
    (fun (s : Vmht_hls.Accel.run_stats) ->
      c "hls.accel_fsm_cycles" s.Vmht_hls.Accel.fsm_cycles;
      c "hls.accel_loads" s.Vmht_hls.Accel.loads;
      c "hls.accel_stores" s.Vmht_hls.Accel.stores;
      c "hls.accel_block_visits" s.Vmht_hls.Accel.block_visits)
    res.Launch.accel_stats;
  let bus = (Soc.bus_stats r.soc).Vmht_mem.Bus.bus in
  c "mem.bus_transactions" bus.Vmht_sim.Resource.transactions;
  c "mem.bus_busy_cycles" bus.Vmht_sim.Resource.busy_cycles;
  c "mem.bus_wait_cycles" bus.Vmht_sim.Resource.wait_cycles;
  Soc.sync_metrics r.soc;
  let m = Soc.metrics r.soc in
  let counter k = Vmht_obs.Metrics.counter_value (Vmht_obs.Metrics.counter m k) in
  c "mem.dram_row_hits" (counter "dram.row_hits");
  c "mem.dram_row_misses" (counter "dram.row_misses");
  let f = Soc.fault_stats r.soc in
  c "fault.injected" f.Vmht_fault.Injector.injected;
  c "fault.retries" f.Vmht_fault.Injector.retries;
  c "fault.aborts" f.Vmht_fault.Injector.aborts;
  c "fault.stall_cycles" f.Vmht_fault.Injector.stall_cycles

(* Fill the synthesis memo with every design the points need. *)
let fill_memo points =
  Flow.reset_cache ();
  List.iter (fun p -> ignore (synthesize p)) points
