type kind = Table | Figure | Ablation | Sweep

let kind_name = function
  | Table -> "table"
  | Figure -> "figure"
  | Ablation -> "ablation"
  | Sweep -> "sweep"

type t = {
  name : string;
  doc : string;
  kind : kind;
  run : Vmht.Config.t -> string;
}

(* Report order; every consumer (the CLI, bench, help text) derives its
   listing from this one place. *)
let all =
  [
    {
      name = "table1";
      doc = "kernel suite: cycles and speedups, sw vs dma vs vm";
      kind = Table;
      run = Table1.run;
    };
    {
      name = "table2";
      doc = "capacity cliff: copy-based fails where VM threads keep going";
      kind = Table;
      run = Table2.run;
    };
    {
      name = "table3";
      doc = "cycle attribution: where the time goes in each style";
      kind = Table;
      run = Table3.run;
    };
    {
      name = "table4";
      doc = "synthesized wrapper area: dma vs vm interface logic";
      kind = Table;
      run = Table4.run;
    };
    {
      name = "table5";
      doc = "design productivity: source lines vs handled VM machinery";
      kind = Table;
      run = Table5.run;
    };
    {
      name = "table6";
      doc = "sharing & protection: two processes, one accelerator";
      kind = Table;
      run = Table6.run;
    };
    {
      name = "fig1";
      doc = "speedup vs data size: the copy-based capacity cliff";
      kind = Figure;
      run = Fig1.run;
    };
    {
      name = "fig2";
      doc = "runtime and hit rate vs TLB entries";
      kind = Figure;
      run = Fig2.run;
    };
    {
      name = "fig3";
      doc = "runtime vs page size";
      kind = Figure;
      run = Fig3.run;
    };
    {
      name = "fig4";
      doc = "miss handling: hardware walker vs software refill";
      kind = Figure;
      run = Fig4.run;
    };
    {
      name = "fig5";
      doc = "synthesis time and FSM size vs unroll factor";
      kind = Figure;
      run = Fig5.run;
    };
    {
      name = "fig6";
      doc = "multi-thread scaling on the shared bus";
      kind = Figure;
      run = Fig6.run;
    };
    {
      name = "abl1";
      doc = "wrapper stream-buffer size sweep";
      kind = Ablation;
      run = Abl1.run;
    };
    {
      name = "abl2";
      doc = "TLB organization: associativity and replacement";
      kind = Ablation;
      run = Abl2.run;
    };
    {
      name = "abl3";
      doc = "datapath parallelism: unroll x memory ports";
      kind = Ablation;
      run = Abl3.run;
    };
    {
      name = "abl4";
      doc = "loop pipelining: static II estimate beside measured FSM cycles";
      kind = Ablation;
      run = Abl4.run;
    };
    {
      name = "abl5";
      doc = "optimization level: -O0/-O1/-O2 pass schedules";
      kind = Ablation;
      run = Abl5.run;
    };
    {
      name = "abl6";
      doc = "translation hierarchy: shared L2 TLB and page-walk cache";
      kind = Ablation;
      run = Abl6.run;
    };
    {
      name = "abl7";
      doc = "simulator fast path on vs off: identical cycles, faster host";
      kind = Ablation;
      run = Abl7.run;
    };
    {
      name = "robust";
      doc = "fault injection: recovery overhead, vm vs copy-based";
      kind = Sweep;
      run = Robust.run;
    };
    {
      name = "rtl1";
      doc = "RTL loop closed: emitted Verilog vs model executor, cycle-exact";
      kind = Sweep;
      run = Rtl1.run;
    };
    {
      name = "dse1";
      doc = "design-space exploration: unroll x banks x opt x TLB Pareto front";
      kind = Sweep;
      run = Dse.run;
    };
  ]

let find name = List.find_opt (fun e -> e.name = name) all

let by_kind kind = List.filter (fun e -> e.kind = kind) all

let run ?(config = Vmht.Config.default) e = e.run config

module Json = Vmht_obs.Json
module Histogram = Vmht_obs.Histogram

type bench = {
  mismatches : string list;
  manifest : exit_code:int -> (string * Json.t) list -> Json.t;
}

(* Experiments run one after another; each still fans its own sweep
   points out across the domain pool, so outputs and the deterministic
   manifest fields are the same at any width.  The process-wide
   counters are read when the last experiment finishes, so nothing the
   caller runs afterwards leaks into the manifest. *)
let bench ?(config = Vmht.Config.default) ?(emit = fun _ _ _ -> ()) es =
  Common.reset_mismatches ();
  Vmht_ir.Pass_manager.reset_totals ();
  Vmht_vm.Vm_totals.reset ();
  let sched = Vmht.Config.schedule config in
  let summary h = Histogram.summary_to_json (Histogram.summary h) in
  let all_cycles = Histogram.create () and all_host_ns = Histogram.create () in
  let t0 = Unix.gettimeofday () in
  let experiment e =
    let s0 = Unix.gettimeofday () in
    let out, { Common.run_cycles; run_host_ns } =
      Common.with_run_stats (fun () -> run ~config e)
    in
    let seconds = Unix.gettimeofday () -. s0 in
    emit e out seconds;
    Histogram.merge_into ~src:run_cycles ~dst:all_cycles;
    Histogram.merge_into ~src:run_host_ns ~dst:all_host_ns;
    let runs = Histogram.count run_cycles in
    Json.Obj
      [
        ("name", Json.String e.name);
        (* Experiments that execute nothing (area and synthesis-time
           studies) have no per-run timing; the explicit kind tells the
           perf gate that their missing ns_per_run is intentional. *)
        ("kind", Json.String (if runs = 0 then "synthesis" else "run"));
        ("seconds", Json.Float seconds);
        ("runs", Json.Int runs);
        ( "ns_per_run",
          if runs = 0 then Json.Null
          else Json.Float (seconds *. 1e9 /. float_of_int runs) );
        ("cycles", summary run_cycles);
        ("host_ns", summary run_host_ns);
        ("output_bytes", Json.Int (String.length out));
      ]
  in
  let experiments = List.map experiment es in
  let total_seconds = Unix.gettimeofday () -. t0 in
  let mismatches = Common.mismatch_log () in
  let jobs = Vmht_par.Parmap.jobs () in
  let vm = Vmht_vm.Vm_totals.totals () in
  let cache = Vmht.Flow.cache_stats () in
  let ints kvs = Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) kvs) in
  let fields =
    [
      ("seed", Json.Int config.Vmht.Config.seed);
      ( "fault",
        Json.String (Vmht_fault.Plan.to_string config.Vmht.Config.fault) );
      ("fastpath", Json.Bool config.Vmht.Config.fastpath);
      ("experiments", Json.List experiments);
      ( "passes",
        Json.Obj
          [
            ("schedule", Json.String sched.Vmht_ir.Pass_manager.sname);
            ( "order",
              Json.List
                (List.map
                   (fun (p : Vmht_ir.Pass.t) -> Json.String p.Vmht_ir.Pass.name)
                   sched.Vmht_ir.Pass_manager.passes) );
          ] );
      ( "pass_stats",
        let t = Vmht_ir.Pass_manager.totals () in
        Json.Obj
          [
            ("verify_calls", Json.Int t.verify_calls);
            ( "per_pass",
              Json.List
                (List.map
                   (fun (s : Vmht_ir.Pass_manager.pass_stat) ->
                     Json.Obj
                       [
                         ("pass", Json.String s.pass);
                         ("runs", Json.Int s.runs);
                         ("rewrites", Json.Int s.rewrites);
                       ])
                   t.per_pass) );
          ] );
      ( "vm",
        Vmht_vm.Vm_totals.(
          ints
            [
              ("tlb2.lookups", vm.tlb2_lookups);
              ("tlb2.hits", vm.tlb2_hits);
              ("tlb2.misses", vm.tlb2_lookups - vm.tlb2_hits);
              ("tlb2.evictions", vm.tlb2_evictions);
              ("walk_cache.hits", vm.walk_cache_hits);
              ("walk_cache.misses", vm.walk_cache_misses);
            ]) );
      ( "run",
        Json.Obj
          [ ("cycles", summary all_cycles); ("host_ns", summary all_host_ns) ]
      );
      ("mismatches", Json.List (List.map (fun s -> Json.String s) mismatches));
      ("total_seconds", Json.Float total_seconds);
      ( "synthesis_cache",
        ints
          [
            ("hits", cache.Vmht.Flow.cache_hits);
            ("misses", cache.Vmht.Flow.cache_misses);
            ("entries", cache.Vmht.Flow.cache_entries);
          ] );
    ]
  in
  {
    mismatches;
    manifest =
      (fun ~exit_code extra ->
        Vmht_obs.Manifest.make ~schema:"vmht-bench/3" ~jobs
          ~config:(Vmht.Config.digest config)
          (fields @ (("exit_code", Json.Int exit_code) :: extra)));
  }
