(* sim_mix: one op is one execution on a fresh SoC of a seeded draw
   over the registry kernels x {sw, vm, dma} x {half, full} default
   size x L1 TLB entries {8, 16, 64}; a quarter of the ops run under
   uniform fault injection.  Every synthesis is filled into the memo
   (and every software thread compiled) during set-up, so host time is
   in the simulator and the memory/VM/fault layers.

   A round is the whole grid once, in a seeded order, with a seeded
   choice of the fault-injected quarter and seeded fault streams.  The
   workload data is the evaluation harness's (data seed 42) for every
   seed: with seeded data the heaviest ops (spmv's random sparsity)
   changed their own cost from seed to seed, which put the tail
   latency's spread across seeds near its bound. *)

open Vmht
module Workload = Vmht_workloads.Workload

let tlbs = [ 8; 16; 64 ]
let fault_plan = Vmht_fault.Plan.uniform ~rate:0.005

(* Exactly a quarter of the ops are fault-injected: in every (kernel,
   mode) cell one seeded TLB size runs under faults, at both data sizes
   in half of the cells and at one seeded size in the other half.  So
   the number of distinct designs to synthesize (and the share of
   faulty runs) does not depend on the seed. *)
let points ~seed =
  let st = Driver.rng seed 2 in
  let cells =
    List.concat_map
      (fun w ->
        let kernel = Workload.kernel w in
        let sw = Flow.compile_sw Config.default kernel in
        List.map
          (fun mode -> (w, kernel, mode))
          [ Exec.Sw sw; Exec.Hw Wrapper.Vm_iface; Exec.Hw Wrapper.Dma_iface ])
      Vmht_workloads.Registry.all
  in
  let both =
    List.mapi (fun i _ -> 2 * i < List.length cells) cells
    |> Driver.shuffle st |> Array.of_list
  in
  List.concat
    (List.mapi
       (fun ci (w, kernel, mode) ->
         let sizes = [ max 1 (w.Workload.default_size / 2); w.Workload.default_size ] in
         let fault_tlb = Driver.pick st tlbs and fault_size = Driver.pick st sizes in
         List.concat_map
           (fun size ->
             List.map
               (fun tlb ->
                 let faulty = tlb = fault_tlb && (both.(ci) || size = fault_size) in
                 let config =
                   Config.with_seed (Config.with_tlb_entries Config.default tlb) seed
                 in
                 {
                   Exec.w;
                   kernel;
                   mode;
                   size;
                   data_seed = 42;
                   config =
                     (if faulty then Config.with_fault config fault_plan else config);
                   tag =
                     Printf.sprintf "%s/%s size %d tlb %d%s" w.Workload.name
                       (Exec.style_name mode) size tlb
                       (if faulty then " faults" else "");
                 })
               tlbs)
           sizes)
       cells)

let prepare ~seed =
  let points = points ~seed in
  Exec.fill_memo points;
  let points = Array.of_list points in
  let in_order = Driver.seeded_order ~seed ~salt:2 (Array.length points) in
  let round () =
    in_order (fun id ->
        let p = points.(id) in
        Driver.op id
          (fun () -> Exec.run ~launch:"core.launch" p)
          (fun r ->
            Exec.account r;
            if Exec.correct r then None else Some (p.Exec.tag ^ ": wrong result")))
  in
  {
    Driver.ops_per_round = Array.length points;
    inexact = [];
    round;
    probes = ignore;
  }
