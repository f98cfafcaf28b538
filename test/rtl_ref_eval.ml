(* The AST-walking RTL evaluator that [Vmht_rtl.Eval] compiled away,
   kept as the reference the compiled evaluator is tested against (see
   test_rtl_eval.ml).  It raises the library's exception and returns
   its [outcome], so results and failures compare directly. *)

module Ast = Vmht_rtl.Ast
module Engine = Vmht_sim.Engine
module Accel = Vmht_hls.Accel

exception Rtl_error = Vmht_rtl.Eval.Rtl_error

let fail fmt = Printf.ksprintf (fun s -> raise (Rtl_error s)) fmt

(* Four-state reduced to two: a wire/reg either holds a known word or
   X.  X flows silently through datapath arithmetic (as in hardware)
   and becomes a hard error the moment it reaches something that
   steers the machine — the state register, a branch condition, or a
   sampled request line.  That discipline is what makes the emitter's
   missing-reset bug observable on every kernel instead of "works in
   the simulator". *)
type value = X | V of int

type outcome = Vmht_rtl.Eval.outcome = {
  result : int option;  (** [result] output at [done]; [None] when X *)
  requests : int;  (** channel requests the adapter accepted *)
  edges : int;  (** clock edges evaluated *)
}

(* ------------------------ expression eval -------------------------- *)

let bool_int b = if b then 1 else 0

let u64 = Int64.of_int

(* Operator semantics over the project's word model (OCaml 63-bit
   ints, shift counts masked to 6 bits): the signed variants are
   exactly {!Vmht_lang.Ast_interp.eval_binop}'s — including raising
   [Eval_error] on division by zero, so both backends fail the same
   way — and the unsigned variants are the Int64 logical ones.  The
   emitter casts Div/Rem/Shr operands with [$signed], which is how the
   reference (signed) semantics are selected here; an uncast [>>>] is
   a *logical* shift, which is the Shr bug this evaluator pins. *)
let apply_binop op ~signed a b =
  let module I = Vmht_lang.Ast_interp in
  match op with
  | "+" -> a + b
  | "-" -> a - b
  | "*" -> a * b
  | "/" ->
    if signed then I.eval_binop Vmht_lang.Ast.Div a b
    else begin
      if b = 0 then raise (I.Eval_error "division by zero");
      Int64.to_int (Int64.unsigned_div (u64 a) (u64 b))
    end
  | "%" ->
    if signed then I.eval_binop Vmht_lang.Ast.Rem a b
    else begin
      if b = 0 then raise (I.Eval_error "remainder by zero");
      Int64.to_int (Int64.unsigned_rem (u64 a) (u64 b))
    end
  | "&" -> a land b
  | "|" -> a lor b
  | "^" -> a lxor b
  | "<<" -> a lsl (b land 63)
  | ">>" -> Int64.to_int (Int64.shift_right_logical (u64 a) (b land 63))
  | ">>>" ->
    if signed then a asr (b land 63)
    else Int64.to_int (Int64.shift_right_logical (u64 a) (b land 63))
  | "<" ->
    bool_int
      (if signed then a < b else Int64.unsigned_compare (u64 a) (u64 b) < 0)
  | "<=" ->
    bool_int
      (if signed then a <= b else Int64.unsigned_compare (u64 a) (u64 b) <= 0)
  | ">" ->
    bool_int
      (if signed then a > b else Int64.unsigned_compare (u64 a) (u64 b) > 0)
  | ">=" ->
    bool_int
      (if signed then a >= b else Int64.unsigned_compare (u64 a) (u64 b) >= 0)
  | "==" -> bool_int (a = b)
  | "!=" -> bool_int (a <> b)
  | "&&" -> bool_int (a <> 0 && b <> 0)
  | "||" -> bool_int (a <> 0 || b <> 0)
  | _ -> fail "unknown binary operator %S" op

let binop_result_signed op signed =
  match op with
  | "<" | "<=" | ">" | ">=" | "==" | "!=" | "&&" | "||" -> false
  | _ -> signed

(* The signedness [eval_expr] gives [e], without evaluating it — needed
   for the branch of a ternary that is not taken: a ternary is signed
   only when both branches are (IEEE 1364-2005 §5.5.1). *)
let rec static_signed = function
  | Ast.Lit l -> l.Ast.signed
  | Ast.Var _ | Ast.Concat _ -> false
  | Ast.Signed _ -> true
  | Ast.Unop (op, e) -> op <> "!" && static_signed e
  | Ast.Binop (op, l, r) ->
    binop_result_signed op
      (match op with
       | "<<" | ">>" | ">>>" -> static_signed l
       | _ -> static_signed l && static_signed r)
  | Ast.Ternary (_, t, f) -> static_signed t && static_signed f

(* Evaluate to (value, signedness).  Verilog's rules for the subset:
   regs and plain literals are unsigned, ['sd] literals and [$signed]
   casts are signed, an operation is signed only when *both* operands
   are (shifts: only the left operand counts), comparisons yield
   unsigned bits. *)
let rec eval_expr lookup e =
  match e with
  | Ast.Lit l -> (V l.Ast.value, l.Ast.signed)
  | Ast.Var n -> (lookup n, false)
  | Ast.Signed e ->
    let v, _ = eval_expr lookup e in
    (v, true)
  | Ast.Concat parts -> (
    (* The emitter only writes zero-extensions: {63'b0, one-bit-e}. *)
    match parts with
    | [ Ast.Lit { Ast.value = 0; _ }; e ] ->
      let v, _ = eval_expr lookup e in
      (v, false)
    | _ -> fail "unsupported concatenation shape")
  | Ast.Unop (op, e) -> (
    let v, s = eval_expr lookup e in
    match v with
    | X -> (X, if op = "!" then false else s)
    | V a -> (
      match op with
      | "-" -> (V (-a), s)
      | "~" -> (V (lnot a), s)
      | "!" -> (V (bool_int (a = 0)), false)
      | _ -> fail "unknown unary operator %S" op))
  | Ast.Binop (op, l, r) -> (
    let vl, sl = eval_expr lookup l in
    let vr, sr = eval_expr lookup r in
    let signed =
      match op with "<<" | ">>" | ">>>" -> sl | _ -> sl && sr
    in
    let rs = binop_result_signed op signed in
    match (vl, vr) with
    | X, _ | _, X -> (X, rs)
    | V a, V b -> (V (apply_binop op ~signed a b), rs))
  | Ast.Ternary (c, t, f) -> (
    match fst (eval_expr lookup c) with
    | X -> fail "X in a ternary select (uninitialized control)"
    | V 0 -> (fst (eval_expr lookup f), static_signed e)
    | V _ -> (fst (eval_expr lookup t), static_signed e))

(* --------------------------- channels ------------------------------ *)

type chan_state = Idle | Busy | Ready | Presented

type chan = {
  prefix : string;
  mutable cst : chan_state;
  mutable we : bool;
  mutable addr : int;
  mutable wdata : int;
  mutable rdval : int;
}

(* The emitter names channel 0 [mem] and channel [c > 0] [mem<c>];
   instruction order within a cycle equals channel-number order (the
   binder assigns units greedily in instruction order), so servicing
   channels by index reproduces the model's access order exactly. *)
let channel_index prefix =
  if prefix = "mem" then 0
  else
    match int_of_string_opt (String.sub prefix 3 (String.length prefix - 3)) with
    | Some n when String.length prefix > 3 && String.sub prefix 0 3 = "mem" ->
      n
    | _ -> fail "unrecognized channel prefix %S" prefix

let discover_channels (m : Ast.t) =
  let has name dir =
    List.exists
      (fun (p : Ast.port) -> p.Ast.pname = name && p.Ast.dir = dir)
      m.Ast.ports
  in
  List.filter_map
    (fun (p : Ast.port) ->
      match p.Ast.dir with
      | Ast.Output
        when String.length p.Ast.pname > 4
             && String.sub p.Ast.pname
                  (String.length p.Ast.pname - 4)
                  4
                = "_req" ->
        let prefix =
          String.sub p.Ast.pname 0 (String.length p.Ast.pname - 4)
        in
        if has (prefix ^ "_ack") Ast.Input then
          Some
            {
              prefix;
              cst = Idle;
              we = false;
              addr = 0;
              wdata = 0;
              rdval = 0;
            }
        else None
      | _ -> None)
    m.Ast.ports
  |> List.sort (fun a b ->
         compare (channel_index a.prefix) (channel_index b.prefix))

(* ----------------------------- run --------------------------------- *)

let run ?(stats = Accel.fresh_stats ()) ?(ports = 1)
    ?(max_edges = 50_000_000) (m : Ast.t) ~(port : Accel.port) ~args =
  let env : (string, value) Hashtbl.t = Hashtbl.create 64 in
  let set n v = Hashtbl.replace env n v in
  let param n = List.assoc_opt n m.Ast.params in
  let lookup n =
    match Hashtbl.find_opt env n with
    | Some v -> v
    | None -> (
      match param n with
      | Some l -> V l.Ast.value
      | None -> fail "unknown identifier %S" n)
  in
  (* Internal regs and output regs power up X; input wires are driven
     (0) by the harness except the read-data returns, which stay X
     until the adapter presents one. *)
  let writable = Hashtbl.create 32 in
  List.iter
    (fun (r, _) ->
      Hashtbl.replace writable r ();
      set r X)
    m.Ast.regs;
  List.iter
    (fun (p : Ast.port) ->
      match p.Ast.dir with
      | Ast.Output ->
        if p.Ast.is_reg then begin
          Hashtbl.replace writable p.Ast.pname ();
          set p.Ast.pname X
        end
      | Ast.Input ->
        let n = p.Ast.pname in
        if
          String.length n > 6
          && String.sub n (String.length n - 6) 6 = "_rdata"
        then set n X
        else set n (V 0))
    m.Ast.ports;
  let channels = discover_channels m in
  (* Bind the kernel arguments to the argN input ports. *)
  let n_args =
    List.length
      (List.filter
         (fun (p : Ast.port) ->
           p.Ast.dir = Ast.Input
           && String.length p.Ast.pname > 3
           && String.sub p.Ast.pname 0 3 = "arg"
           &&
           match
             int_of_string_opt
               (String.sub p.Ast.pname 3 (String.length p.Ast.pname - 3))
           with
           | Some _ -> true
           | None -> false)
         m.Ast.ports)
  in
  if n_args <> List.length args then
    invalid_arg
      (Printf.sprintf "Rtl.Eval.run: %s expects %d args, got %d" m.Ast.mname
         n_args (List.length args));
  List.iteri (fun i v -> set (Printf.sprintf "arg%d" i) (V v)) args;
  (* Statement execution: reads see the register file as of this edge;
     assignments buffer and apply in statement order (nonblocking with
     last-write-wins). *)
  let exec stmts =
    let commits = ref [] in
    let rec go stmts =
      List.iter
        (fun s ->
          match s with
          | Ast.Assign (n, e) ->
            if not (Hashtbl.mem writable n) then
              fail "assignment to non-register %S" n;
            commits := (n, fst (eval_expr lookup e)) :: !commits
          | Ast.If (c, body) -> (
            match fst (eval_expr lookup c) with
            | X -> fail "X in a branch condition (uninitialized control)"
            | V 0 -> ()
            | V _ -> go body))
        stmts
    in
    go stmts;
    List.rev !commits
  in
  let apply = List.iter (fun (n, v) -> set n v) in
  (* Case dispatch table; symbolic labels resolve through localparams. *)
  let arm_tbl = Hashtbl.create 32 in
  let default_arm = ref [] in
  List.iter
    (fun (k, body) ->
      match k with
      | Ast.Knum v -> Hashtbl.replace arm_tbl v body
      | Ast.Kid id -> (
        match param id with
        | Some l -> Hashtbl.replace arm_tbl l.Ast.value body
        | None -> fail "case label %S is not a localparam" id)
      | Ast.Kdefault -> default_arm := body)
    m.Ast.arms;
  let param_value n =
    match param n with
    | Some l -> l.Ast.value
    | None -> fail "module has no %S localparam" n
  in
  let s_idle = param_value "S_IDLE" in
  let s_done = param_value "S_DONE" in
  (* Reset edge, then hold start high until done. *)
  set "rst" (V 1);
  apply (exec m.Ast.reset);
  set "rst" (V 0);
  set "start" (V 1);
  let requests = ref 0 in
  let edges = ref 0 in
  let finished = ref false in
  let sample_req c = lookup (c.prefix ^ "_req") in
  let service c =
    if c.we then port.Accel.store c.addr c.wdata
    else c.rdval <- port.Accel.load c.addr
  in
  let present c =
    set (c.prefix ^ "_ack") (V 1);
    if not c.we then set (c.prefix ^ "_rdata") (V c.rdval);
    c.cst <- Presented
  in
  while not !finished do
    incr edges;
    if !edges > max_edges then
      fail "edge budget exceeded (%d edges) — runaway or deadlocked FSM"
        max_edges;
    let sval =
      match lookup "state" with
      | V v -> v
      | X -> fail "state register is X"
    in
    let arm =
      match Hashtbl.find_opt arm_tbl sval with
      | Some a -> a
      | None -> !default_arm
    in
    (* Edge accounting, matched against the model's: the edge that
       consumes an ack coalesces with the successor state's entry (a
       memory state costs exactly its access latency), the edge that
       issues requests is the state's entry edge (lanes below advance
       the clock), any other exec-state edge is one pure cycle, and
       the idle/done handshake edges are free — the model has no
       dispatch cost either. *)
    let consume = List.exists (fun c -> c.cst = Presented) channels in
    let commits = exec arm in
    if consume then apply commits
    else begin
      let next_req c =
        List.fold_left
          (fun acc (n, v) -> if n = c.prefix ^ "_req" then Some v else acc)
          None commits
        |> Option.value ~default:(sample_req c)
      in
      let will_issue =
        List.exists (fun c -> c.cst = Idle && next_req c = V 1) channels
      in
      if will_issue then begin
        apply commits;
        stats.Accel.fsm_cycles <- stats.Accel.fsm_cycles + 1
      end
      else if sval <> s_idle && sval <> s_done then begin
        Engine.wait 1;
        apply commits;
        stats.Accel.fsm_cycles <- stats.Accel.fsm_cycles + 1
      end
      else apply commits
    end;
    (match lookup "done" with
     | X -> fail "done is X"
     | V 0 -> ()
     | V _ -> finished := true);
    if not !finished then begin
      (* Ack-hold handshake: a presented ack is held until the FSM is
         seen with the request deasserted, then the channel is free
         for the next access. *)
      List.iter
        (fun c ->
          if c.cst = Presented && sample_req c = V 0 then begin
            set (c.prefix ^ "_ack") (V 0);
            c.cst <- Idle
          end)
        channels;
      (* Accept requests (in channel order = the model's instruction
         order) from idle channels whose req samples high. *)
      let accepted =
        List.filter
          (fun c ->
            c.cst = Idle
            &&
            match sample_req c with
            | X ->
              fail "%s_req is X — the output register has no reset"
                c.prefix
            | V 0 -> false
            | V _ ->
              c.we <-
                (match lookup (c.prefix ^ "_we") with
                 | X -> fail "%s_we is X at issue" c.prefix
                 | V 0 -> false
                 | V _ -> true);
              c.addr <-
                (match lookup (c.prefix ^ "_addr") with
                 | X -> fail "%s_addr is X at issue" c.prefix
                 | V a -> a);
              c.wdata <-
                (if c.we then
                   match lookup (c.prefix ^ "_wdata") with
                   | X -> fail "%s_wdata is X at issue" c.prefix
                   | V v -> v
                 else 0);
              incr requests;
              if c.we then stats.Accel.stores <- stats.Accel.stores + 1
              else stats.Accel.loads <- stats.Accel.loads + 1;
              true)
          channels
      in
      if accepted <> [] then begin
        let stalling =
          match lookup "state" with
          | V v -> v = sval
          | X -> fail "state register is X"
        in
        if stalling then begin
          (* The FSM holds this state for the accesses: run them as
             [ports]-wide lanes exactly like the model's memory cycle
             and present every ack at completion, so the next edge is
             the acked advance. *)
          let lanes = List.map (fun c () -> service c) accepted in
          List.iter
            (Engine.join_all ~name:"mem-lane")
            (Accel.chunks ports lanes);
          List.iter present accepted
        end
        else
          (* The FSM advanced while its request was still out — the
             emitted hold bug.  Service asynchronously so the run
             still makes progress and the divergence (spurious
             requests, wrong cycles) is observable. *)
          List.iter
            (fun c ->
              c.cst <- Busy;
              Engine.fork ~name:"mem-lane" (fun () ->
                  service c;
                  c.cst <- Ready))
            accepted
      end;
      List.iter (fun c -> if c.cst = Ready then present c) channels
    end
  done;
  let result =
    match lookup "result" with
    | V v -> Some v
    | X -> None
  in
  { result; requests = !requests; edges = !edges }
