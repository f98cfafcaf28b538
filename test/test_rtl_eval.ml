(* The compiled RTL evaluator against the AST-walking reference it
   replaced ([Rtl_ref_eval]).  First its failure surface, pinned message
   by message: each [Rtl_error] the evaluator can raise, the
   argument-count [Invalid_argument] and its order against the lazily
   reported module errors, and division by zero (a raised [Eval_error]
   on known operands, a silent X when an operand is X).  Then ternary
   signedness, and a randomized differential over emitted designs and
   text mutations that reach the error paths. *)

module Eval = Vmht_rtl.Eval
module Parse = Vmht_rtl.Parse
module Flow = Vmht.Flow
module Config = Vmht.Config
module Soc = Vmht.Soc
module Addr_space = Vmht_vm.Addr_space
module Accel = Vmht_hls.Accel
module Ast_interp = Vmht_lang.Ast_interp

let untimed_of data = Accel.untimed_port (Ast_interp.array_memory data)

(* Replace every occurrence of [sub] in [text] with [by]. *)
let replace_all ~sub ~by text =
  let nt = String.length text and ns = String.length sub in
  let b = Buffer.create nt in
  let rec go i =
    if i + ns > nt then Buffer.add_string b (String.sub text i (nt - i))
    else if String.sub text i ns = sub then begin
      Buffer.add_string b by;
      go (i + ns)
    end
    else begin
      Buffer.add_char b text.[i];
      go (i + 1)
    end
  in
  if not (Test_rtl.contains text sub) then
    invalid_arg ("replace_all: substring absent: " ^ sub);
  go 0;
  Buffer.contents b

(* A one-state module in the emitted shape: [decls] go after the state
   register, [body] is arm [2'd0]'s statements before it finishes, and
   [extra_arms] follow that arm. *)
let mini ?(decls = "") ?(extra_arms = "") body =
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
  %s
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
          %s
          done <= 1'b1;
          state <= S_DONE;
        end
        %s
        S_DONE: begin
          done <= 1'b1;
        end
      endcase
    end
  end
endmodule
|}
    decls body extra_arms

let run ?max_edges ?(args = [ 7 ]) ?(data = [| 5; 9 |]) text =
  Test_rtl.eval_run ?max_edges text ~port:(untimed_of data) ~args

let expect_rtl_error ?max_edges ?args name text want =
  match run ?max_edges ?args text with
  | exception Eval.Rtl_error msg -> Alcotest.(check string) name want msg
  | _ -> Alcotest.fail (name ^ ": ran without an Rtl_error")

let expect_invalid_arg ?args name text want =
  match run ?args text with
  | exception Invalid_argument msg -> Alcotest.(check string) name want msg
  | _ -> Alcotest.fail (name ^ ": ran without Invalid_argument")

let loads = Test_rtl.two_loads ~deassert:true

let test_expression_errors () =
  expect_rtl_error "unknown identifier" (mini "result <= arg0 + foo;")
    {|unknown identifier "foo"|};
  expect_rtl_error "assignment to non-register" (mini "arg0 <= 64'd1;")
    {|assignment to non-register "arg0"|};
  expect_rtl_error "X in a branch condition"
    (mini ~decls:"reg [63:0] u;" "if (u) result <= 64'd1;")
    "X in a branch condition (uninitialized control)";
  expect_rtl_error "X in a ternary select"
    (mini ~decls:"reg [63:0] u;" "result <= u ? 64'd1 : 64'd2;")
    "X in a ternary select (uninitialized control)";
  expect_rtl_error "unsupported concatenation"
    (mini "result <= {64'd1, arg0};")
    "unsupported concatenation shape";
  (* Unknown identifiers are found when evaluated, not when compiled:
     an untaken branch never reads one. *)
  let out, _ = run (mini "if (arg0 == 64'd0) result <= foo;") in
  Alcotest.(check (option int)) "untaken unknown identifier" (Some 0)
    out.Eval.result

let test_module_errors () =
  let bad_label =
    mini ~extra_arms:"S_BOGUS: begin done <= 1'b1; end" "result <= arg0;"
  in
  expect_rtl_error "case label not a localparam" bad_label
    {|case label "S_BOGUS" is not a localparam|};
  expect_invalid_arg ~args:[ 1; 2 ] "arg count is checked before case labels"
    bad_label "Rtl.Eval.run: ht_mini expects 1 args, got 2";
  let no_idle =
    mini "result <= arg0;"
    |> Test_rtl.replace ~sub:"localparam S_IDLE = 2'd1;"
         ~by:"localparam S_IDLX = 2'd1;"
    |> replace_all ~sub:"S_IDLE" ~by:"2'd1"
  in
  expect_rtl_error "missing S_IDLE" no_idle {|module has no "S_IDLE" localparam|};
  let no_done =
    mini "result <= arg0;"
    |> Test_rtl.replace ~sub:"localparam S_DONE = 2'd2;"
         ~by:"localparam S_DONX = 2'd2;"
    |> replace_all ~sub:"S_DONE" ~by:"2'd2"
  in
  expect_rtl_error "missing S_DONE" no_done {|module has no "S_DONE" localparam|};
  (* Channels are discovered before the argument count is checked. *)
  let bad_prefix =
    Test_rtl.replace ~sub:"  input wire mem_ack\n"
      ~by:
        "  input wire mem_ack,\n\
        \  output reg bus_req,\n\
        \  output reg bus_we,\n\
        \  output reg [63:0] bus_addr,\n\
        \  output reg [63:0] bus_wdata,\n\
        \  input wire [63:0] bus_rdata,\n\
        \  input wire bus_ack\n"
      loads
  in
  expect_rtl_error "unrecognized channel prefix" bad_prefix
    {|unrecognized channel prefix "bus"|};
  expect_rtl_error ~args:[ 1; 2 ] "channel prefix is checked before arg count"
    bad_prefix {|unrecognized channel prefix "bus"|};
  expect_invalid_arg ~args:[] "arg count" loads
    "Rtl.Eval.run: ht_two_loads expects 1 args, got 0"

let test_x_control () =
  expect_rtl_error "state is X"
    (Test_rtl.replace ~sub:"state <= S_IDLE;" ~by:"" (mini "result <= arg0;"))
    "state register is X";
  expect_rtl_error "done is X"
    (mini "result <= arg0;" |> replace_all ~sub:"done <= 1'b0;" ~by:"")
    "done is X";
  expect_rtl_error "req is X"
    (Test_rtl.replace ~sub:"mem_req <= 1'b0;" ~by:"" loads)
    "mem_req is X — the output register has no reset";
  expect_rtl_error "we is X at issue"
    (replace_all ~sub:"mem_we <= 1'b0;" ~by:"" loads)
    "mem_we is X at issue";
  expect_rtl_error "addr is X at issue"
    (loads
    |> Test_rtl.replace ~sub:"mem_addr <= 64'd0;" ~by:""
    |> Test_rtl.replace ~sub:"mem_addr <= arg0;" ~by:"")
    "mem_addr is X at issue";
  expect_rtl_error "wdata is X at issue"
    (loads
    |> Test_rtl.replace ~sub:"mem_wdata <= 64'd0;" ~by:""
    |> Test_rtl.replace ~sub:"mem_we <= 1'b0;\n          mem_addr <= arg0;"
         ~by:"mem_we <= 1'b1;\n          mem_addr <= arg0;")
    "mem_wdata is X at issue";
  expect_rtl_error ~max_edges:1 "edge budget" (mini "result <= arg0;")
    "edge budget exceeded (1 edges) — runaway or deadlocked FSM"

let test_division_by_zero () =
  let expect_eval_error name text want =
    match run text with
    | exception Ast_interp.Eval_error msg ->
      Alcotest.(check string) name want msg
    | _ -> Alcotest.fail (name ^ ": ran without an Eval_error")
  in
  expect_eval_error "signed /" (mini "result <= $signed(arg0) / $signed(64'd0);")
    "division by zero";
  expect_eval_error "unsigned /" (mini "result <= arg0 / 64'd0;")
    "division by zero";
  expect_eval_error "signed %" (mini "result <= $signed(arg0) % $signed(64'd0);")
    "remainder by zero";
  expect_eval_error "unsigned %" (mini "result <= arg0 % 64'd0;")
    "remainder by zero";
  List.iter
    (fun op ->
      let out, _ =
        run (mini ~decls:"reg [63:0] u;" (Printf.sprintf "result <= u %s 64'd0;" op))
      in
      Alcotest.(check (option int)) ("X " ^ op ^ " 0 is a silent X") None
        out.Eval.result)
    [ "/"; "%" ]

(* A ternary is signed only when both branches are: with one unsigned
   branch, [<] compares and [>>>] shifts unsigned even when the taken
   branch is [$signed].  The emitter never writes such a ternary. *)
let test_ternary_signedness () =
  let check name expr want =
    let text = mini (Printf.sprintf "result <= %s;" expr) in
    let out, _ = run ~args:[ -8 ] text in
    Alcotest.(check (option int)) name (Some want) out.Eval.result;
    let ast = Parse.parse_module text in
    let eng = Vmht_sim.Engine.create () in
    let reference = ref None in
    Vmht_sim.Engine.spawn eng ~name:"rtl" (fun () ->
        reference :=
          Some (Rtl_ref_eval.run ast ~port:(untimed_of [||]) ~args:[ -8 ]));
    Vmht_sim.Engine.run eng;
    Alcotest.(check (option int)) (name ^ " (reference)") (Some want)
      (Option.get !reference).Eval.result
  in
  let logical = Int64.to_int (Int64.shift_right_logical (-8L) 1) in
  check "mixed ternary >>> is logical"
    "(arg0 == 64'd0 ? 64'd0 : $signed(arg0)) >>> 1" logical;
  check "signed ternary >>> is arithmetic"
    "(arg0 == 64'd0 ? $signed(64'd0) : $signed(arg0)) >>> 1" (-4);
  check "mixed ternary < is unsigned"
    "{63'b0, (arg0 == 64'd0 ? 64'd0 : $signed(arg0)) < $signed(64'd1)}" 0;
  check "signed ternary < is signed"
    "{63'b0, (arg0 == 64'd0 ? $signed(64'd0) : $signed(arg0)) < $signed(64'd1)}"
    1

(* ------------------ compiled = reference evaluator ----------------- *)

(* Text surgery on an emitted module that reaches the evaluator's
   error and divergence paths. *)
type mutation =
  | Intact
  | Drop_reset of int  (** delete the k-th (mod n) reset assignment *)
  | Strip_signed  (** uncast the first [>>>] operand *)
  | Hold_bug  (** never deassert a request once issued *)

let mutation_name = function
  | Intact -> "intact"
  | Drop_reset k -> Printf.sprintf "drop reset %d" k
  | Strip_signed -> "strip $signed"
  | Hold_bug -> "hold bug"

(* Keep the lines of [text] for which [keep (line, in_reset_clause)]. *)
let filter_lines text keep =
  let inside = ref false in
  String.split_on_char '\n' text
  |> List.filter (fun line ->
         let in_reset =
           if Test_rtl.contains line "if (rst) begin" then (inside := true; false)
           else if !inside && Test_rtl.contains line "end else begin" then (
             inside := false;
             false)
           else !inside
         in
         keep (line, in_reset))
  |> String.concat "\n"

let mutate text = function
  | Intact -> text
  | Drop_reset k ->
    let n = ref 0 in
    ignore (filter_lines text (fun (_, r) -> if r then incr n; true));
    let seen = ref (-1) in
    filter_lines text (fun (_, r) ->
        (not r)
        ||
        (incr seen;
         !seen <> k mod !n))
  | Strip_signed -> (
    (* [$signed(r) >>> n] becomes [r >>> n]. *)
    let rec find i =
      if i + 5 > String.length text then None
      else if String.sub text i 5 = ") >>>" then Some i
      else find (i + 1)
    in
    match find 0 with
    | None -> text
    | Some j ->
      let rec opener i =
        if String.sub text i 8 = "$signed(" then i else opener (i - 1)
      in
      let i = opener j in
      String.sub text 0 i
      ^ String.sub text (i + 8) (j - i - 8)
      ^ String.sub text (j + 1) (String.length text - j - 1))
  | Hold_bug ->
    (* A deassert is a line holding only [<chan>_req <= 1'b0;]. *)
    let deassert line =
      let l = String.trim line in
      let n = String.length l in
      n > 13
      && String.sub l (n - 13) 13 = "_req <= 1'b0;"
      && not (String.contains (String.sub l 0 (n - 1)) ';')
    in
    filter_lines text (fun (line, r) -> r || not (deassert line))

(* One run of [text] on a fresh SoC through the VM port: the outcome or
   the exception, the run stats, final memory and engine time. *)
let observe ~config ~seed ~evaluator text =
  let soc = Soc.create config in
  let aspace = Soc.aspace soc in
  let base = Addr_space.alloc aspace ~bytes:(Gen_prog.mem_words * 8) in
  for i = 0 to Gen_prog.mem_words - 1 do
    Addr_space.store_word aspace (base + (i * 8)) ((i * 37) mod 101)
  done;
  let mmu = Soc.make_mmu soc in
  let port, flush = Soc.vm_port soc mmu in
  let stats = Accel.fresh_stats () in
  let args = [ base; seed mod 11; seed mod 7 ] in
  let ports = Config.accel_width config in
  let ast = Parse.parse_module text in
  let max_edges = 200_000 in
  let outcome =
    match
      Vmht.Launch.run_to_completion soc (fun () ->
          let o =
            match evaluator with
            | `Compiled -> Eval.run ~stats ~ports ~max_edges (Eval.compile ast) ~port ~args
            | `Reference -> Rtl_ref_eval.run ~stats ~ports ~max_edges ast ~port ~args
          in
          flush ();
          o)
    with
    | o -> Ok o
    | exception e -> Error (Printexc.to_string e)
  in
  let mem =
    List.init Gen_prog.mem_words (fun i ->
        Addr_space.load_word aspace (base + (i * 8)))
  in
  ( outcome,
    (stats.Accel.loads, stats.Accel.stores, stats.Accel.fsm_cycles),
    mem,
    Soc.now soc )

let arb_eval_case =
  let open QCheck.Gen in
  let mutation =
    frequency
      [
        (3, return Intact);
        (2, map (fun k -> Drop_reset k) (0 -- 6));
        (1, return Strip_signed);
        (2, return Hold_bug);
      ]
  in
  QCheck.make
    ~print:(fun ((seed, banks, unroll), (tlb, rate, fault_seed), m) ->
      Printf.sprintf
        "(kernel seed %d, banks=%d, unroll=%d, tlb=%d, fault rate %.3f seed %d, %s)"
        seed banks unroll tlb rate fault_seed (mutation_name m))
    (triple
       (triple (0 -- 20000) (oneofl [ 1; 2; 4 ]) (oneofl [ 1; 2; 4 ]))
       (triple (oneofl [ 4; 8; 16 ]) (oneofl [ 0.; 0.005; 0.02 ]) (0 -- 1000))
       mutation)

let prop_compiled_matches_reference =
  QCheck.Test.make ~count:60
    ~name:"compiled evaluator = reference (outcome, stats, memory, time, errors)"
    arb_eval_case
    (fun ((seed, banks, unroll), (tlb, rate, fault_seed), m) ->
      let config = Config.with_tlb_entries Config.default tlb in
      let config = Config.with_banks (Config.with_unroll config unroll) banks in
      let config = Config.with_seed config fault_seed in
      let config =
        if rate > 0. then Config.with_fault config (Vmht_fault.Plan.uniform ~rate)
        else config
      in
      let hw =
        Flow.run_exn
          (Flow.Request.of_kernel ~config ~style:Vmht.Wrapper.Vm_iface
             (Gen_prog.gen_kernel seed))
      in
      let text = mutate hw.Flow.verilog m in
      let compiled = observe ~config ~seed ~evaluator:`Compiled text in
      let reference = observe ~config ~seed ~evaluator:`Reference text in
      compiled = reference)

let suite =
  [
    Alcotest.test_case "errors: expressions and statements" `Quick
      test_expression_errors;
    Alcotest.test_case "errors: module shape and arg-count order" `Quick
      test_module_errors;
    Alcotest.test_case "errors: X reaching control and requests" `Quick
      test_x_control;
    Alcotest.test_case "errors: division by zero, known vs X" `Quick
      test_division_by_zero;
    Alcotest.test_case "ternary: signed only when both branches are" `Quick
      test_ternary_signedness;
    QCheck_alcotest.to_alcotest prop_compiled_matches_reference;
  ]
