(* rtl_exec: one op is one hardware-thread run on the RTL evaluator
   (Config.backend = Rtl) of a seeded draw over the registry kernels x
   {vm, dma} x unroll {1, 2, 4} x banks {1, 4}, at the rtl1 grid's
   size of 256 elements (mmul, spmv and bfs are scaled down so one op
   stays comparable), with seeded workload data.  Every op is checked
   against the model executor's result and cycle count, computed during
   set-up. *)

open Vmht
module Workload = Vmht_workloads.Workload

let size_of = function "mmul" -> 8 | "bfs" -> 64 | "spmv" -> 128 | _ -> 256

type reference = { ret : int option; cycles : int }

let points ~seed =
  let st = Driver.rng seed 3 in
  List.concat_map
    (fun w ->
      let kernel = Workload.kernel w in
      List.concat_map
        (fun style ->
          List.concat_map
            (fun unroll ->
              List.map
                (fun banks ->
                  let config =
                    Config.with_banks (Config.with_unroll Config.default unroll) banks
                  in
                  {
                    Exec.w;
                    kernel;
                    mode = Exec.Hw style;
                    size = size_of w.Workload.name;
                    data_seed = 0;
                    config = Config.with_seed config seed;
                    tag =
                      Printf.sprintf "%s/%s u%d b%d" w.Workload.name
                        (Wrapper.style_name style) unroll banks;
                  })
                [ 1; 4 ])
            [ 1; 2; 4 ])
        [ Wrapper.Vm_iface; Wrapper.Dma_iface ])
    Vmht_workloads.Registry.all
  |> List.map (fun p -> { p with Exec.data_seed = Random.State.bits st })

let rtl p = { p with Exec.config = Config.with_backend p.Exec.config Config.Rtl }

let prepare ~seed =
  let model = points ~seed in
  let ops = List.map rtl model in
  Exec.fill_memo (model @ ops);
  (* The evaluator memoizes the parse of each emitted design; warm it so
     ops time evaluation, not parsing (rtl.parse_ms measures parsing). *)
  List.iter
    (fun p ->
      let hw = Option.get (Exec.synthesize p) in
      ignore (Vmht_rtl.Parse.parse_memo hw.Flow.verilog))
    ops;
  let model_s = ref 0. in
  let refs =
    Array.of_list
      (List.map
         (fun p ->
           let t0 = Unix.gettimeofday () in
           let r = Exec.run ~launch:"core.launch" p in
           model_s := !model_s +. (Unix.gettimeofday () -. t0);
           if not (Exec.correct r) then
             failwith (p.Exec.tag ^ ": model reference run is wrong");
           { ret = r.Exec.result.Launch.ret; cycles = r.Exec.result.Launch.total_cycles })
         model)
  in
  let ops = Array.of_list ops in
  let in_order = Driver.seeded_order ~seed ~salt:3 (Array.length ops) in
  let round () =
    Driver.sum "rtl.model_ms" (!model_s *. 1e3);
    in_order (fun id ->
        let p = ops.(id) in
        Driver.op id
          (fun () -> Exec.run ~launch:"rtl.run" p)
          (fun r ->
            Exec.account r;
            let want = refs.(id) and res = r.Exec.result in
            if not (Exec.correct r) then Some (p.Exec.tag ^ ": wrong result")
            else if res.Launch.ret <> want.ret || res.Launch.total_cycles <> want.cycles
            then
              Some
                (Printf.sprintf "%s: rtl %d cycles, model %d" p.Exec.tag
                   res.Launch.total_cycles want.cycles)
            else None))
  in
  let probes () =
    (* Uncached parse, once per distinct emitted design. *)
    let seen = Hashtbl.create 64 in
    Array.iter
      (fun p ->
        let v = (Option.get (Exec.synthesize p)).Flow.verilog in
        if not (Hashtbl.mem seen v) then begin
          Hashtbl.add seen v ();
          ignore (Tracer.span "rtl.parse" (fun () -> Vmht_rtl.Parse.parse_module v))
        end)
      ops
  in
  { Driver.ops_per_round = Array.length ops; inexact = []; round; probes }
