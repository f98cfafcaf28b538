(* synth_sweep: one op is one cold [Flow.run] (cache off) of a seeded
   draw over the registry kernels x unroll x opt level x banks x
   wrapper style.  The simulator is never entered.

   One round is the whole grid (720 designs) in a seeded order, so the
   exact counts (states, LUTs, IR counts) do not depend on the seed. *)

open Vmht
module Fsm = Vmht_hls.Fsm
module Schedule = Vmht_hls.Schedule
module Optypes = Vmht_hls.Optypes
module Pass_manager = Vmht_ir.Pass_manager
module Workload = Vmht_workloads.Workload

let unrolls = [ 1; 2; 4; 8 ]
let opts = [ 0; 1; 2 ]
let banks = [ 1; 2; 4 ]
let styles = [ Wrapper.Vm_iface; Wrapper.Dma_iface ]

type point = { w : Workload.t; config : Config.t; style : Wrapper.style }

let grid =
  List.concat_map
    (fun w ->
      List.concat_map
        (fun u ->
          List.concat_map
            (fun o ->
              List.concat_map
                (fun b ->
                  let c = Config.with_unroll Config.default u in
                  let config = Config.with_banks (Config.with_opt_level c o) b in
                  List.map (fun style -> { w; config; style }) styles)
                banks)
            opts)
        unrolls)
    Vmht_workloads.Registry.all

let request p =
  Flow.Request.of_source ~config:p.config ~style:p.style ~cache:false
    p.w.Workload.source

(* The traced run re-drives the flow stage by stage, in
   [Fsm.synthesize]'s order, with a span around each public call.  The
   passes run unverified; the verifier's cost is the difference to a
   verified run of the same schedule on a second lowering. *)
let redrive p =
  let config = p.config in
  Tracer.span "core.redrive" (fun () ->
      let k =
        Tracer.span "lang.parse" (fun () ->
            Vmht_lang.Parser.parse_kernel p.w.Workload.source)
      in
      Tracer.span "lang.typecheck" (fun () -> Vmht_lang.Typecheck.check_kernel k);
      let k', unrolled =
        Tracer.span "ir.unroll" (fun () ->
            Vmht_ir.Ast_unroll.unroll_kernel ~factor:config.Config.unroll k)
      in
      let func = Tracer.span "ir.lower" (fun () -> Vmht_ir.Lower.lower_kernel k') in
      let sched = Config.schedule config in
      let report =
        Tracer.span "ir.passes" (fun () -> Pass_manager.run ~verify:false sched func)
      in
      let probe = Tracer.span "ir.lower_probe" (fun () -> Vmht_ir.Lower.lower_kernel k') in
      ignore
        (Tracer.span "ir.passes_verified" (fun () ->
             Pass_manager.run ~verify:true sched probe));
      let schedule =
        Tracer.span "hls.schedule" (fun () ->
            Schedule.schedule_func ~resources:config.Config.resources func)
      in
      let binding = Tracer.span "hls.bind" (fun () -> Vmht_hls.Bind.bind schedule) in
      let states = Schedule.total_states schedule in
      let area = Fsm.datapath_area binding ~states in
      let fsm =
        {
          Fsm.name = k.Vmht_lang.Ast.kname;
          func;
          schedule;
          binding;
          area;
          plans = [];
          stats =
            {
              Fsm.ir_instrs = Vmht_ir.Ir.instr_count func;
              blocks = Vmht_ir.Ir.block_count func;
              states;
              reg_count = binding.Vmht_hls.Bind.reg_count;
              opt_report = report;
              unrolled_loops = unrolled;
              pipelined_loops = 0;
            };
        }
      in
      let total = Optypes.add_area area (Wrapper.area config p.style) in
      ignore
        (Tracer.span "hls.emit" (fun () ->
             Vmht_hls.Verilog.emit_with_wrapper fsm ~wrapper_ports:(Wrapper.ports p.style)));
      (states, total.Optypes.lut))

let check (hw : Flow.hw_thread) =
  match
    Tracer.span "check.validate" (fun () ->
        Schedule.validate hw.Flow.fsm.Fsm.schedule);
    Tracer.span "check.rtl_parse" (fun () ->
        ignore (Vmht_rtl.Parse.parse_module hw.Flow.verilog))
  with
  | () -> None
  | exception Failure m -> Some ("schedule invalid: " ^ m)
  | exception Vmht_rtl.Parse.Parse_error m -> Some ("emitted RTL rejected: " ^ m)

let account (hw : Flow.hw_thread) =
  let stats = hw.Flow.fsm.Fsm.stats in
  let r = stats.Fsm.opt_report in
  Driver.count "hw_luts" hw.Flow.total_area.Optypes.lut;
  Driver.count "hw_cycles" stats.Fsm.states;
  Driver.count "hls.states" stats.Fsm.states;
  Driver.count "hls.verilog_bytes" (String.length hw.Flow.verilog);
  Driver.count "ir.pass_iterations" r.Pass_manager.iterations;
  Driver.count "ir.pass_rewrites"
    (List.fold_left (fun a s -> a + s.Pass_manager.rewrites) 0 r.Pass_manager.stats);
  Driver.count "ir.instrs_before" r.Pass_manager.instrs_before;
  Driver.count "ir.instrs_after" r.Pass_manager.instrs_after

let prepare ~seed =
  let points = Array.of_list grid in
  let in_order = Driver.seeded_order ~seed ~salt:1 (Array.length points) in
  (* Lazy set-up (pass registry, first allocations) finishes before
     timing: one cold synthesis per kernel. *)
  List.iter
    (fun w ->
      ignore
        (Flow.run_exn
           (Flow.Request.of_source ~cache:false w.Workload.source)))
    Vmht_workloads.Registry.all;
  let round () =
    in_order (fun id ->
        let p = points.(id) in
        Driver.op id
          (fun () ->
            let hw = Tracer.span "core.flow" (fun () -> Flow.run_exn (request p)) in
            let re = if !Tracer.on then Some (redrive p) else None in
            (hw, re))
          (fun (hw, re) ->
            account hw;
            match re with
            | Some (states, lut)
              when states <> hw.Flow.fsm.Fsm.stats.Fsm.states
                   || lut <> hw.Flow.total_area.Optypes.lut ->
              Some
                (Printf.sprintf "stage re-drive gave %d states / %d LUTs, Flow.run %d / %d"
                   states lut hw.Flow.fsm.Fsm.stats.Fsm.states
                   hw.Flow.total_area.Optypes.lut)
            | _ -> check hw))
  in
  {
    Driver.ops_per_round = Array.length points;
    inexact = [];
    round;
    probes = ignore;
  }
