(* Ablation 4 — loop pipelining as a static estimate.  Each kernel runs
   once as a VM thread with plain FSM execution (the measured column);
   the modulo scheduler then plans its first innermost loop on the same
   optimized IR and resources synthesis used, and the table reports the
   plan's bounds: the FSM iteration length, the resource- and
   recurrence-constrained minimum IIs, the achieved II, and [iter / II],
   the ceiling on what overlapping iterations could gain.  No pipelined
   cycle count is simulated: the emitted FSM is unpipelined. *)

module Table = Vmht_util.Table
module Workload = Vmht_workloads.Workload
module Pipeliner = Vmht_hls.Pipeliner

let subjects =
  [ "vecadd"; "saxpy"; "dotprod"; "mmul"; "histogram"; "list_sum" ]

let run base =
  let table =
    Table.create
      ~title:
        "Ablation 4: loop pipelining, static estimate — measured VM-thread \
         FSM cycles and the modulo scheduler's plan (not simulated)"
      ~headers:
        [
          "kernel"; "FSM cycles"; "iter cycles"; "res MII"; "rec MII"; "II";
          "ceiling iter/II";
        ]
  in
  Common.par_map
    (fun name ->
      let w = Vmht_workloads.Registry.find name in
      let o = Common.run ~config:base Common.Vm w ~size:w.Workload.default_size in
      assert o.Common.correct;
      let hw = Option.get o.Common.hw in
      let estimate =
        match
          Pipeliner.plan_loops hw.Vmht.Flow.fsm.Vmht_hls.Fsm.func
            ~resources:base.Vmht.Config.resources
        with
        | p :: _ ->
          [
            string_of_int p.Pipeliner.unpipelined_cycles;
            string_of_int p.Pipeliner.res_mii;
            string_of_int p.Pipeliner.rec_mii;
            string_of_int p.Pipeliner.ii;
            Table.fmt_float
              (float_of_int p.Pipeliner.unpipelined_cycles
              /. float_of_int p.Pipeliner.ii)
            ^ "x";
          ]
        | [] -> [ "-"; "-"; "-"; "-"; "-" ]
      in
      name :: Table.fmt_int (Common.cycles o) :: estimate)
    subjects
  |> List.iter (Table.add_row table);
  Table.render table
