(* The RTL loop, closed: the emitted Verilog text is parsed back and
   executed, and the emitted bytes must agree with the model-level
   executor — results, cycle counts, and memory traffic.  Each emitter
   bug this library was built to catch has a directed regression here
   that fails against the pre-fix emitter: the request-hold bug, the
   missing resets, the mis-signed [>>>], the [-64'sd5] negative
   immediates, the undersized state register, and stale terminator
   operands. *)

module Parse = Vmht_rtl.Parse
module Eval = Vmht_rtl.Eval
module Engine = Vmht_sim.Engine
module Accel = Vmht_hls.Accel
module Fsm = Vmht_hls.Fsm
module Parser = Vmht_lang.Parser
module Ast_interp = Vmht_lang.Ast_interp
module Common = Vmht_eval.Common
module Flow = Vmht.Flow

let check_int = Alcotest.(check int)

let check_bool = Alcotest.(check bool)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* Replace the first occurrence of [sub] in [text] with [by]. *)
let replace ~sub ~by text =
  let nt = String.length text and ns = String.length sub in
  let rec find i =
    if i + ns > nt then None
    else if String.sub text i ns = sub then Some i
    else find (i + 1)
  in
  match find 0 with
  | None -> invalid_arg "replace: substring absent"
  | Some i ->
    String.sub text 0 i ^ by ^ String.sub text (i + ns) (nt - i - ns)

(* Run parsed RTL inside a private engine, like the model-executor
   tests do for [Accel.run]. *)
let eval_run ?(ports = 1) ?max_edges text ~port ~args =
  let prog = Eval.compile (Parse.parse_module text) in
  let eng = Engine.create () in
  let out = ref None in
  let stats = Accel.fresh_stats () in
  Engine.spawn eng ~name:"rtl" (fun () ->
      out := Some (Eval.run ~stats ~ports ?max_edges prog ~port ~args));
  Engine.run eng;
  (Option.get !out, stats)

(* The same kernel through both executors, untimed memory: returns
   ((ret, data, fsm_cycles) per backend). *)
let both_backends ?(ports = 1) ?(unroll = 1) kernel ~data ~args =
  let hw = Fsm.synthesize ~unroll kernel in
  let model_data = Array.copy data in
  let model_ret = ref None in
  let model_stats = Accel.fresh_stats () in
  let eng = Engine.create () in
  Engine.spawn eng ~name:"accel" (fun () ->
      let port = Accel.untimed_port (Ast_interp.array_memory model_data) in
      model_ret := Some (Accel.run ~stats:model_stats ~ports hw ~port ~args));
  Engine.run eng;
  let text = Vmht_hls.Verilog.emit hw in
  let rtl_data = Array.copy data in
  let out, rtl_stats =
    eval_run ~ports text
      ~port:(Accel.untimed_port (Ast_interp.array_memory rtl_data))
      ~args
  in
  ( (!model_ret, model_data, model_stats),
    (out, rtl_data, rtl_stats) )

(* ------------------- emitted text round-trips ---------------------- *)

(* Every workload's emitted module, both wrapper styles, must parse —
   including kernels with enough states that the pre-fix emitter's
   undersized state register made S_IDLE overflow its literal width
   (a hard Parse_error here, not silent truncation). *)
let test_parse_all_workloads () =
  List.iter
    (fun (w : Vmht_workloads.Workload.t) ->
      List.iter
        (fun style ->
          let hw = Common.synthesize style w in
          let m = Parse.parse_module hw.Flow.verilog in
          check_bool
            (w.Vmht_workloads.Workload.name ^ ": has idle/done params")
            true
            (List.mem_assoc "S_IDLE" m.Vmht_rtl.Ast.params
            && List.mem_assoc "S_DONE" m.Vmht_rtl.Ast.params);
          (* The memo must hand back the same compiled program. *)
          check_bool "memoized program" true
            (Parse.parse_memo hw.Flow.verilog
            == Parse.parse_memo hw.Flow.verilog))
        [ Vmht.Wrapper.Vm_iface; Vmht.Wrapper.Dma_iface ])
    Vmht_workloads.Registry.all

let vecadd_kernel =
  Parser.parse_kernel
    {|kernel vecadd(a: int*, b: int*, c: int*, n: int) {
        var i: int;
        for (i = 0; i < n; i = i + 1) { c[i] = a[i] + b[i]; }
      }|}

(* Reset clause regression: the pre-fix emitter reset only state/done,
   leaving result and every channel output X after reset. *)
let test_emitted_reset_clause () =
  let hw = Fsm.synthesize vecadd_kernel in
  let text = Vmht_hls.Verilog.emit hw in
  List.iter
    (fun line ->
      check_bool ("reset clause has " ^ line) true (contains text line))
    [
      "result <= 64'd0;";
      "mem_req <= 1'b0;";
      "mem_we <= 1'b0;";
      "mem_addr <= 64'd0;";
      "mem_wdata <= 64'd0;";
    ]

(* Negative immediates must be sized two's-complement literals: the old
   [-64'sd5] spelling is self-determined inside concatenations and
   mis-parses there, so the strict parser rejects the form outright. *)
let test_negative_immediates () =
  let k =
    Parser.parse_kernel
      {|kernel negk(a: int*, n: int) {
          var i: int;
          for (i = 0; i < n; i = i + 1) { a[i] = a[i] * (-3) + (-7); }
        }|}
  in
  let hw = Fsm.synthesize k in
  let text = Vmht_hls.Verilog.emit hw in
  check_bool "no -64'sd spelling" false (contains text "-64'sd");
  check_bool "two's-complement hex immediates present" true
    (contains text "64'hf");
  (* And the emitted bytes still compute the right thing. *)
  let data = Array.init 8 (fun i -> i - 3) in
  let (mret, mdata, _), (out, rdata, _) =
    both_backends k ~data ~args:[ 0; 8 ]
  in
  check_bool "model ran" true (mret <> None);
  ignore out;
  Array.iteri
    (fun i v ->
      check_int (Printf.sprintf "negk data[%d]" i) v rdata.(i);
      check_int (Printf.sprintf "negk expected[%d]" i)
        (((i - 3) * -3) - 7)
        mdata.(i))
    mdata

(* --------------------- handwritten harness ------------------------ *)

(* A two-load adder in exactly the emitted module shape.  [deassert]
   selects whether the FSM drops [mem_req] on the acked advance — the
   emitter's request-hold bug, isolated. *)
let two_loads ~deassert =
  let d = if deassert then "mem_req <= 1'b0;\n            " else "" in
  Printf.sprintf
    {|module ht_two_loads(
  input wire clk,
  input wire rst,
  input wire start,
  input wire [63:0] arg0,
  output reg done,
  output reg [63:0] result,
  output reg mem_req,
  output reg mem_we,
  output reg [63:0] mem_addr,
  output reg [63:0] mem_wdata,
  input wire [63:0] mem_rdata,
  input wire mem_ack
);
  localparam S_IDLE = 3'd3;
  localparam S_DONE = 3'd4;
  reg [2:0] state;
  reg [63:0] r1;
  reg [63:0] r2;
  always @(posedge clk) begin
    if (rst) begin
      state <= S_IDLE;
      done <= 1'b0;
      result <= 64'd0;
      mem_req <= 1'b0;
      mem_we <= 1'b0;
      mem_addr <= 64'd0;
      mem_wdata <= 64'd0;
    end else begin
      case (state)
        S_IDLE: begin
          if (start) begin
            done <= 1'b0;
            state <= 3'd0;
          end
        end
        3'd0: begin
          mem_req <= 1'b1;
          mem_we <= 1'b0;
          mem_addr <= arg0;
          if (mem_ack) begin
            r1 <= mem_rdata;
            %sstate <= 3'd1;
          end
        end
        3'd1: begin
          mem_req <= 1'b1;
          mem_we <= 1'b0;
          mem_addr <= arg0 + 64'd8;
          if (mem_ack) begin
            r2 <= mem_rdata;
            %sstate <= 3'd2;
          end
        end
        3'd2: begin
          result <= r1 + r2;
          done <= 1'b1;
          state <= S_DONE;
        end
        S_DONE: begin
          done <= 1'b1;
        end
      endcase
    end
  end
endmodule
|}
    d d

(* A pure single-state module computing [result <= <expr of arg0>]. *)
let pure_module expr =
  Printf.sprintf
    {|module ht_mini(
  input wire clk,
  input wire rst,
  input wire start,
  input wire [63:0] arg0,
  output reg done,
  output reg [63:0] result
);
  localparam S_IDLE = 2'd1;
  localparam S_DONE = 2'd2;
  reg [1:0] state;
  always @(posedge clk) begin
    if (rst) begin
      state <= S_IDLE;
      done <= 1'b0;
      result <= 64'd0;
    end else begin
      case (state)
        S_IDLE: begin
          if (start) begin
            done <= 1'b0;
            state <= 2'd0;
          end
        end
        2'd0: begin
          result <= %s;
          done <= 1'b1;
          state <= S_DONE;
        end
        S_DONE: begin
          done <= 1'b1;
        end
      endcase
    end
  end
endmodule
|}
    expr

let untimed_of data = Accel.untimed_port (Ast_interp.array_memory data)

(* The request-hold regression: without the deassert, the adapter's
   held ack satisfies the next state's gate instantly, so the second
   load never goes out — one request, stale data.  With it, two
   requests and the right sum.  Counting accepted requests is what
   makes the bug observable rather than just "wrong answer". *)
let test_request_hold_bug () =
  let data = [| 5; 9 |] in
  let fixed, fstats =
    eval_run (two_loads ~deassert:true) ~port:(untimed_of data) ~args:[ 0 ]
  in
  check_int "fixed: result" 14 (Option.get fixed.Eval.result);
  check_int "fixed: requests" 2 fixed.Eval.requests;
  check_int "fixed: loads" 2 fstats.Accel.loads;
  let buggy, bstats =
    eval_run (two_loads ~deassert:false) ~port:(untimed_of data) ~args:[ 0 ]
  in
  check_int "hold bug: only one request ever issues" 1 buggy.Eval.requests;
  check_int "hold bug: one load" 1 bstats.Accel.loads;
  check_int "hold bug: stale data doubles the first word" 10
    (Option.get buggy.Eval.result)

(* The missing-reset regression: with the reset clause gutted, the
   first sampled request line is X — a hard error, not a quiet zero. *)
let test_missing_reset_is_x () =
  let gutted =
    (* Strip every reset assignment except state's, mimicking the
       pre-fix emitter (which reset only state and done). *)
    let lines = String.split_on_char '\n' (two_loads ~deassert:true) in
    let in_reset = ref false in
    let keep line =
      if contains line "if (rst) begin" then begin
        in_reset := true;
        true
      end
      else if !in_reset && contains line "end else begin" then begin
        in_reset := false;
        true
      end
      else not (!in_reset && (contains line "mem_" || contains line "result"))
    in
    String.concat "\n" (List.filter keep lines)
  in
  let data = [| 5; 9 |] in
  match eval_run gutted ~port:(untimed_of data) ~args:[ 0 ] with
  | exception Eval.Rtl_error msg ->
    check_bool "error names the X'd request" true (contains msg "X")
  | _ -> Alcotest.fail "unreset request line executed without an error"

(* The [>>>] signedness bug, pinned semantically: on an unsigned reg,
   [>>>] is a *logical* shift, so the pre-fix emitter's spelling
   diverges from the interpreter's arithmetic [asr] on any negative
   value.  The fixed emitter casts with [$signed]. *)
let test_shr_signedness () =
  let run expr =
    let out, _ =
      eval_run (pure_module expr) ~port:(untimed_of [||]) ~args:[ -8 ]
    in
    Option.get out.Eval.result
  in
  check_int "$signed(x) >>> 1 is an arithmetic shift" (-4)
    (run "$signed(arg0) >>> 1");
  check_int "bare x >>> 1 is a logical shift (the bug)"
    (Int64.to_int (Int64.shift_right_logical (Int64.of_int (-8)) 1))
    (run "arg0 >>> 1");
  (* And the emitter now always writes the signed form. *)
  let k =
    Parser.parse_kernel
      {|kernel shrk(a: int*, n: int) {
          var i: int;
          for (i = 0; i < n; i = i + 1) { a[i] = a[i] >> 1; }
        }|}
  in
  let text = Vmht_hls.Verilog.emit (Fsm.synthesize k) in
  let rec scan from =
    match String.index_from_opt text from '>' with
    | Some i
      when i + 2 < String.length text
           && text.[i + 1] = '>' && text.[i + 2] = '>' ->
      (* Every [>>>] must shift a [$signed(...)] operand. *)
      check_bool ">>> operand is $signed" true
        (i >= 2 && String.sub text (i - 2) 2 = ") ");
      scan (i + 3)
    | Some i -> scan (i + 1)
    | None -> ()
  in
  scan 0;
  check_bool "shift kernel uses >>>" true (contains text ">>>");
  (* Behavioral: negative values survive the round trip. *)
  let data = [| -8; -3; 17; min_int / 2 |] in
  let (_, mdata, mstats), (_, rdata, rstats) =
    both_backends k ~data ~args:[ 0; 4 ]
  in
  Array.iteri
    (fun i v ->
      check_int (Printf.sprintf "shrk data[%d]" i) v rdata.(i);
      check_int (Printf.sprintf "shrk expected[%d]" i) (data.(i) asr 1)
        mdata.(i))
    mdata;
  check_int "shrk fsm cycles" mstats.Accel.fsm_cycles rstats.Accel.fsm_cycles

(* Terminator forwarding: a loop branch whose condition is computed in
   the block's final cycle must read the *forwarded* value, not the
   stale register — the emitter inlines the defining expression into
   the state-select ternary. *)
let test_terminator_forwarding () =
  let hw = Fsm.synthesize vecadd_kernel in
  let text = Vmht_hls.Verilog.emit hw in
  check_bool "branch condition is forwarded inline" true
    (contains text "state <= ((");
  let data = Array.init 24 (fun i -> i) in
  let (_, mdata, mstats), (_, rdata, rstats) =
    both_backends vecadd_kernel ~data ~args:[ 0; 8 * 8; 16 * 8; 8 ]
  in
  check_bool "vecadd data matches model" true (mdata = rdata);
  check_int "vecadd fsm cycles" mstats.Accel.fsm_cycles
    rstats.Accel.fsm_cycles

(* ---------------------- parser strictness ------------------------- *)

let expect_parse_error name text =
  match Parse.parse_module text with
  | exception Parse.Parse_error _ -> ()
  | _ -> Alcotest.fail (name ^ ": accepted by the strict parser")

let test_parser_strictness () =
  (* The pre-fix spelling of negative immediates. *)
  expect_parse_error "unary minus on a sized literal"
    (pure_module "arg0 + -64'sd7");
  (* The undersized state register: 3'd8 does not fit. *)
  expect_parse_error "overflowing literal" (pure_module "arg0 + 3'd8");
  expect_parse_error "x digits" (pure_module "arg0 + 4'dx");
  expect_parse_error "underscore digits" (pure_module "arg0 + 16'd1_0");
  (* No else branches in the emitted subset. *)
  expect_parse_error "else branch"
    (replace (pure_module "arg0")
       ~sub:"result <= arg0;"
       ~by:"if (start) result <= arg0; else result <= 64'd1;")

(* ---------------- randomized backend differential ------------------ *)

(* The full-stack differential, modeled on the fastpath one: any
   generated kernel, TLB geometry, data seed and fault rate must give
   identical cycles, return value and final memory on the model
   executor and on the emitted bytes.  Fault injection is the sharp
   edge: both backends draw from the same injector stream through the
   same port, so a fault lands in the same access either way. *)
let fuzz_vm_observe ~backend ~banks ~tlb_entries ~rate ~seed kernel =
  let config =
    Vmht.Config.with_tlb_entries Vmht.Config.default tlb_entries
  in
  let config = Vmht.Config.with_banks config banks in
  let config = Vmht.Config.with_seed config seed in
  let config =
    if rate > 0. then
      Vmht.Config.with_fault config (Vmht_fault.Plan.uniform ~rate)
    else config
  in
  let config = Vmht.Config.with_backend config backend in
  let soc = Vmht.Soc.create config in
  let aspace = Vmht.Soc.aspace soc in
  let base =
    Vmht_vm.Addr_space.alloc aspace ~bytes:(Gen_prog.mem_words * 8)
  in
  for i = 0 to Gen_prog.mem_words - 1 do
    Vmht_vm.Addr_space.store_word aspace (base + (i * 8)) ((i * 37) mod 101)
  done;
  let hw =
    Flow.run_exn
      (Flow.Request.of_kernel ~config ~style:Vmht.Wrapper.Vm_iface kernel)
  in
  let result =
    Vmht.Launch.run_to_completion soc (fun () ->
        Vmht.Launch.run_hw soc hw
          {
            Vmht.Launch.args = [ base; seed mod 11; seed mod 7 ];
            buffers = [];
          })
  in
  let mem =
    List.init Gen_prog.mem_words (fun i ->
        Vmht_vm.Addr_space.load_word aspace (base + (i * 8)))
  in
  (result.Vmht.Launch.total_cycles, result.Vmht.Launch.ret, mem)

let arb_rtl_case =
  QCheck.make
    ~print:(fun (seed, tlb_entries, rate, banks) ->
      Printf.sprintf "(kernel seed %d, tlb=%d, fault rate %.3f, banks=%d)"
        seed tlb_entries rate banks)
    QCheck.Gen.(
      quad (0 -- 20000)
        (oneofl [ 4; 8; 16 ])
        (oneofl [ 0.; 0.005; 0.02 ])
        (oneofl [ 1; 2; 4 ]))

let prop_rtl_differential =
  QCheck.Test.make ~count:25
    ~name:"emitted RTL = model executor (cycles, ret, memory; incl. faults)"
    arb_rtl_case
    (fun (seed, tlb_entries, rate, banks) ->
      let kernel = Gen_prog.gen_kernel seed in
      let model =
        fuzz_vm_observe ~backend:Vmht.Config.Model ~banks ~tlb_entries ~rate
          ~seed:1 kernel
      in
      let rtl =
        fuzz_vm_observe ~backend:Vmht.Config.Rtl ~banks ~tlb_entries ~rate
          ~seed:1 kernel
      in
      model = rtl)

let suite =
  [
    Alcotest.test_case "parse: every workload, both styles" `Quick
      test_parse_all_workloads;
    Alcotest.test_case "emitter: reset clause covers all outputs" `Quick
      test_emitted_reset_clause;
    Alcotest.test_case "emitter: negative immediates are sized hex" `Quick
      test_negative_immediates;
    Alcotest.test_case "adapter: request-hold bug counted" `Quick
      test_request_hold_bug;
    Alcotest.test_case "eval: missing reset is a hard X error" `Quick
      test_missing_reset_is_x;
    Alcotest.test_case "emitter: >>> is signed" `Quick test_shr_signedness;
    Alcotest.test_case "emitter: terminator operands forwarded" `Quick
      test_terminator_forwarding;
    Alcotest.test_case "parser: strictness" `Quick test_parser_strictness;
    QCheck_alcotest.to_alcotest prop_rtl_differential;
  ]
