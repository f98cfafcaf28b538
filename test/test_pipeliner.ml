(* The loop pipeliner, a static analysis: plan quality and the
   recurrence bound against a hand-computed oracle. *)

open Vmht_hls
module Parser = Vmht_lang.Parser

let check_int = Alcotest.(check int)

let check_bool = Alcotest.(check bool)

let vecadd =
  Parser.parse_kernel
    {|kernel vecadd(a: int*, b: int*, c: int*, n: int) {
        var i: int;
        for (i = 0; i < n; i = i + 1) { c[i] = a[i] + b[i]; }
      }|}

let dotprod =
  Parser.parse_kernel
    {|kernel dotprod(a: int*, b: int*, n: int) : int {
        var s: int = 0;
        var i: int;
        for (i = 0; i < n; i = i + 1) { s = s + a[i] * b[i]; }
        return s;
      }|}

let histogram =
  Parser.parse_kernel
    {|kernel histogram(a: int*, h: int*, n: int) {
        var i: int;
        for (i = 0; i < n; i = i + 1) {
          var v: int = a[i] & 7;
          h[v] = h[v] + 1;
        }
      }|}

let plans_of kernel =
  let hw = Fsm.synthesize kernel in
  Pipeliner.plan_loops hw.Fsm.func ~resources:Schedule.default_resources

let test_plan_found_for_streaming () =
  match plans_of vecadd with
  | [ p ] ->
    check_bool "II below FSM iteration" true
      (p.Pipeliner.ii < p.Pipeliner.unpipelined_cycles);
    check_bool "depth >= II" true (p.Pipeliner.depth >= p.Pipeliner.ii)
  | plans -> Alcotest.fail (Printf.sprintf "expected 1 plan, got %d" (List.length plans))

let test_synthesis_emits_no_plans () =
  let hw = Fsm.synthesize vecadd in
  check_int "synthesis emits no plans" 0 (List.length hw.Fsm.plans);
  check_int "no pipelined loops" 0 hw.Fsm.stats.Fsm.pipelined_loops

let test_reduction_recurrence_respected () =
  match plans_of dotprod with
  | [ p ] ->
    (* The s += chain is a distance-1 recurrence of latency >= 1. *)
    check_bool "II at least 1" true (p.Pipeliner.ii >= 1)
  | _ -> Alcotest.fail "expected one plan"

let test_memory_recurrence_raises_ii () =
  (* histogram's h[v] read-modify-write recurs through memory, so its
     II must exceed a pure streaming kernel's. *)
  match (plans_of histogram, plans_of vecadd) with
  | [ hist ], [ va ] ->
    check_bool "RMW loop has the larger II" true
      (hist.Pipeliner.ii > va.Pipeliner.ii)
  | _ -> Alcotest.fail "expected plans for both"

(* A hand-built loop-carried load/store chain with a known recurrence:
   each iteration loads the previous iteration's store.  The cycle is
   store -> (next iteration) load -> add -> store, so any schedule
   must satisfy II >= inter-edge delay (1) + load latency (1) + add
   latency (1) = 3. *)
let chain =
  Parser.parse_kernel
    {|kernel chain(m: int*, n: int) {
        var i: int;
        for (i = 1; i < n; i = i + 1) { m[i] = m[i - 1] + 1; }
      }|}

let test_recurrence_ii_oracle () =
  let f = Vmht_ir.Lower.lower_kernel chain in
  ignore (Vmht_ir.Pass_manager.optimize f);
  match Pipeliner.plan_loops f ~resources:Schedule.default_resources with
  | [ p ] ->
    check_int "rec_mii equals the hand-computed chain" 3 p.Pipeliner.rec_mii;
    check_bool "achieved II honors the recurrence" true
      (p.Pipeliner.ii >= p.Pipeliner.rec_mii);
    (* vecadd carries nothing through memory; its recurrence bound must
       sit strictly below the chained loop's. *)
    (match Pipeliner.plan_loops
             (let g = Vmht_ir.Lower.lower_kernel vecadd in
              ignore (Vmht_ir.Pass_manager.optimize g);
              g)
             ~resources:Schedule.default_resources
     with
     | [ v ] ->
       check_bool "streaming loop recurs less" true
         (v.Pipeliner.rec_mii < p.Pipeliner.rec_mii)
     | _ -> Alcotest.fail "expected one vecadd plan")
  | plans ->
    Alcotest.fail (Printf.sprintf "expected 1 plan, got %d" (List.length plans))

let suite =
  [
    Alcotest.test_case "plan for streaming loop" `Quick
      test_plan_found_for_streaming;
    Alcotest.test_case "off by default" `Quick test_synthesis_emits_no_plans;
    Alcotest.test_case "reduction recurrence" `Quick
      test_reduction_recurrence_respected;
    Alcotest.test_case "memory recurrence raises II" `Quick
      test_memory_recurrence_raises_ii;
    Alcotest.test_case "recurrence II oracle" `Quick test_recurrence_ii_oracle;
  ]
