module Engine = Vmht_sim.Engine
module Accel = Vmht_hls.Accel

exception Rtl_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Rtl_error s)) fmt

type outcome = {
  result : int option;  (** [result] output at [done]; [None] when X *)
  requests : int;  (** channel requests the adapter accepted *)
  edges : int;  (** clock edges evaluated *)
}

(* ------------------------- machine state --------------------------- *)

(* Four-state reduced to two: a wire/reg either holds a known word or
   X.  X flows silently through datapath arithmetic (as in hardware)
   and becomes a hard error the moment it reaches something that
   steers the machine — the state register, a branch condition, or a
   sampled request line.  That discipline is what makes the emitter's
   missing-reset bug observable on every kernel instead of "works in
   the simulator".

   Every name the module or the harness can touch is resolved at
   compile time to a slot; a run's register file is a pair of arrays
   indexed by slot.  A slot's tag says whether it holds a known word,
   X, or nothing yet — an undeclared name reads through to a
   localparam of that name, or is an unknown identifier. *)
let known = 0

let x_tag = 1

let undefined = 2

type st = {
  vals : int array;
  tags : int array;
  mutable x : bool;  (** whether the expression just evaluated is X *)
  cslot : int array;  (** this edge's commits, in statement order *)
  cval : int array;
  cx : bool array;
  mutable ncommit : int;
}

(* A compiled expression returns its word and leaves its X-ness in
   [st.x]; the word is meaningless when [st.x] is set. *)
type cexpr = st -> int

(* Read slot [i], named [name], as the register file holds it now. *)
let read st i name fallback =
  let t = Array.unsafe_get st.tags i in
  if t = known then begin
    st.x <- false;
    Array.unsafe_get st.vals i
  end
  else if t = x_tag then begin
    st.x <- true;
    0
  end
  else
    match fallback with
    | Some v ->
      st.x <- false;
      v
    | None -> fail "unknown identifier %S" name

let set st i v =
  st.tags.(i) <- known;
  st.vals.(i) <- v

(* ------------------------ expression compile ----------------------- *)

let bool_int b = if b then 1 else 0

let u64 = Int64.of_int

(* Operator semantics over the project's word model (OCaml 63-bit
   ints, shift counts masked to 6 bits): the signed variants are
   exactly {!Vmht_lang.Ast_interp.eval_binop}'s — including raising
   [Eval_error] on division by zero, so both backends fail the same
   way — and the unsigned variants are the Int64 logical ones.  The
   emitter casts Div/Rem/Shr operands with [$signed], which is how the
   reference (signed) semantics are selected here; an uncast [>>>] is
   a *logical* shift, which is the Shr bug this evaluator pins.  The
   operator and its signedness are fixed here, once per module. *)
let binop_fn op ~signed : int -> int -> int =
  let module I = Vmht_lang.Ast_interp in
  let ucmp a b = Int64.unsigned_compare (u64 a) (u64 b) in
  let lsr64 a b = Int64.to_int (Int64.shift_right_logical (u64 a) (b land 63)) in
  match op with
  | "+" -> ( + )
  | "-" -> ( - )
  | "*" -> ( * )
  | "/" ->
    if signed then I.eval_binop Vmht_lang.Ast.Div
    else fun a b ->
      if b = 0 then raise (I.Eval_error "division by zero");
      Int64.to_int (Int64.unsigned_div (u64 a) (u64 b))
  | "%" ->
    if signed then I.eval_binop Vmht_lang.Ast.Rem
    else fun a b ->
      if b = 0 then raise (I.Eval_error "remainder by zero");
      Int64.to_int (Int64.unsigned_rem (u64 a) (u64 b))
  | "&" -> ( land )
  | "|" -> ( lor )
  | "^" -> ( lxor )
  | "<<" -> fun a b -> a lsl (b land 63)
  | ">>" -> lsr64
  | ">>>" -> if signed then fun a b -> a asr (b land 63) else lsr64
  | "<" -> if signed then fun a b -> bool_int (a < b) else fun a b -> bool_int (ucmp a b < 0)
  | "<=" -> if signed then fun a b -> bool_int (a <= b) else fun a b -> bool_int (ucmp a b <= 0)
  | ">" -> if signed then fun a b -> bool_int (a > b) else fun a b -> bool_int (ucmp a b > 0)
  | ">=" -> if signed then fun a b -> bool_int (a >= b) else fun a b -> bool_int (ucmp a b >= 0)
  | "==" -> fun a b -> bool_int (a = b)
  | "!=" -> fun a b -> bool_int (a <> b)
  | "&&" -> fun a b -> bool_int (a <> 0 && b <> 0)
  | "||" -> fun a b -> bool_int (a <> 0 || b <> 0)
  | _ -> fun _ _ -> fail "unknown binary operator %S" op

let binop_result_signed op signed =
  match op with
  | "<" | "<=" | ">" | ">=" | "==" | "!=" | "&&" | "||" -> false
  | _ -> signed

(* Compile to (closure, signedness).  Verilog's rules for the subset:
   regs and plain literals are unsigned, ['sd] literals and [$signed]
   casts are signed, an operation is signed only when *both* operands
   are (shifts: only the left operand counts), a ternary only when both
   branches are (IEEE 1364-2005 §5.5.1), comparisons yield unsigned
   bits.  Failures (unknown identifiers, odd concatenations, X control)
   are compiled into the closure, so they surface only when evaluated. *)
let rec compile_expr ~slot ~param (e : Ast.expr) : cexpr * bool =
  let compile = compile_expr ~slot ~param in
  match e with
  | Ast.Lit { Ast.value; signed; _ } ->
    ( (fun st ->
        st.x <- false;
        value),
      signed )
  | Ast.Var n ->
    let i = slot n and fallback = param n in
    ((fun st -> read st i n fallback), false)
  | Ast.Signed e -> (fst (compile e), true)
  | Ast.Concat parts -> (
    (* The emitter only writes zero-extensions: {63'b0, one-bit-e}. *)
    match parts with
    | [ Ast.Lit { Ast.value = 0; _ }; e ] -> (fst (compile e), false)
    | _ -> ((fun _ -> fail "unsupported concatenation shape"), false))
  | Ast.Unop (op, e) ->
    let ce, s = compile e in
    let f, rs =
      match op with
      | "-" -> (( ~- ), s)
      | "~" -> (lnot, s)
      | "!" -> ((fun a -> bool_int (a = 0)), false)
      | _ -> ((fun _ -> fail "unknown unary operator %S" op), s)
    in
    ((fun st ->
       let a = ce st in
       if st.x then 0 else f a),
     rs)
  | Ast.Binop (op, l, r) ->
    let cl, sl = compile l in
    let cr, sr = compile r in
    let signed = match op with "<<" | ">>" | ">>>" -> sl | _ -> sl && sr in
    let f = binop_fn op ~signed in
    ( (fun st ->
        let a = cl st in
        let xa = st.x in
        let b = cr st in
        if xa || st.x then begin
          st.x <- true;
          0
        end
        else f a b),
      binop_result_signed op signed )
  | Ast.Ternary (c, t, f) ->
    let cc, _ = compile c in
    let ct, st_ = compile t in
    let cf, sf = compile f in
    ( (fun st ->
        let v = cc st in
        if st.x then fail "X in a ternary select (uninitialized control)"
        else if v = 0 then cf st
        else ct st),
      st_ && sf )

(* Statements: reads see the register file as of this edge;
   assignments buffer into the commit arrays in statement order and
   apply after the arm (nonblocking with last-write-wins). *)
let rec compile_stmt ~slot ~param ~writable (s : Ast.stmt) : st -> unit =
  match s with
  | Ast.Assign (n, _) when not (writable n) ->
    fun _ -> fail "assignment to non-register %S" n
  | Ast.Assign (n, e) ->
    let i = slot n and ce, _ = compile_expr ~slot ~param e in
    fun st ->
      let v = ce st in
      let k = st.ncommit in
      st.cslot.(k) <- i;
      st.cval.(k) <- v;
      st.cx.(k) <- st.x;
      st.ncommit <- k + 1
  | Ast.If (c, body) ->
    let cc, _ = compile_expr ~slot ~param c in
    let cb = compile_block ~slot ~param ~writable body in
    fun st ->
      let v = cc st in
      if st.x then fail "X in a branch condition (uninitialized control)"
      else if v <> 0 then cb st

and compile_block ~slot ~param ~writable stmts =
  match List.map (compile_stmt ~slot ~param ~writable) stmts with
  | [] -> fun _ -> ()
  | [ s ] -> s
  | ss ->
    let a = Array.of_list ss in
    fun st ->
      for k = 0 to Array.length a - 1 do
        a.(k) st
      done

(* Upper bound on one execution's commits: every assignment, once. *)
let rec count_assigns stmts =
  List.fold_left
    (fun n -> function
      | Ast.Assign _ -> n + 1
      | Ast.If (_, body) -> n + count_assigns body)
    0 stmts

(* --------------------------- channels ------------------------------ *)

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

let has_suffix s suffix =
  let n = String.length s and k = String.length suffix in
  n > k && String.sub s (n - k) k = suffix

(* Channel prefixes in service order. *)
let discover_channels (m : Ast.t) =
  let has name dir =
    List.exists
      (fun (p : Ast.port) -> p.Ast.pname = name && p.Ast.dir = dir)
      m.Ast.ports
  in
  List.filter_map
    (fun (p : Ast.port) ->
      match p.Ast.dir with
      | Ast.Output when has_suffix p.Ast.pname "_req" ->
        let prefix =
          String.sub p.Ast.pname 0 (String.length p.Ast.pname - 4)
        in
        if has (prefix ^ "_ack") Ast.Input then Some prefix else None
      | _ -> None)
    m.Ast.ports
  |> List.sort (fun a b -> compare (channel_index a) (channel_index b))

type chan_slots = {
  prefix : string;
  req : int;
  we : int;
  addr : int;
  wdata : int;
  ack : int;
  rdata : int;
}

type chan_state = Idle | Busy | Ready | Presented

type chan = {
  s : chan_slots;
  mutable cst : chan_state;
  mutable cwe : bool;
  mutable caddr : int;
  mutable cwdata : int;
  mutable rdval : int;
}

(* ---------------------------- program ------------------------------ *)

type program = {
  mname : string;
  names : string array;  (** slot -> name *)
  fallbacks : int option array;  (** slot -> localparam read when undefined *)
  init_tags : int array;  (** the register file at power-up *)
  init_vals : int array;
  channels : chan_slots array;
  channel_error : exn option;  (** raised before the argument check *)
  n_args : int;
  arg_slots : int array;
  module_error : exn option;  (** raised after the argument check *)
  reset : st -> unit;
  dense_arms : (st -> unit) array;  (** case arms indexed by state value *)
  sparse_arms : (int * (st -> unit)) list;  (** labels outside [dense_arms] *)
  default_arm : st -> unit;
  s_idle : int;
  s_done : int;
  rst : int;
  start : int;
  state : int;
  done_ : int;
  result : int;
  max_commits : int;
}

(* State labels up to this bound index a dense arm array. *)
let dense_limit = 4096

let compile (m : Ast.t) : program =
  let slots = Hashtbl.create 64 in
  let names = ref [] in
  let slot n =
    match Hashtbl.find_opt slots n with
    | Some i -> i
    | None ->
      let i = Hashtbl.length slots in
      Hashtbl.add slots n i;
      names := n :: !names;
      i
  in
  let param n =
    Option.map (fun (l : Ast.lit) -> l.Ast.value) (List.assoc_opt n m.Ast.params)
  in
  (* Power-up: internal regs and output regs are X; input wires are
     driven (0) by the harness except the read-data returns, which stay
     X until the adapter presents one.  Later bindings win, as in a
     register file filled in declaration order. *)
  let init = ref [] in
  let writable = Hashtbl.create 32 in
  List.iter
    (fun (r, _) ->
      Hashtbl.replace writable r ();
      init := (slot r, None) :: !init)
    m.Ast.regs;
  List.iter
    (fun (p : Ast.port) ->
      let n = p.Ast.pname in
      match p.Ast.dir with
      | Ast.Output ->
        if p.Ast.is_reg then begin
          Hashtbl.replace writable n ();
          init := (slot n, None) :: !init
        end
      | Ast.Input ->
        init := (slot n, if has_suffix n "_rdata" then None else Some 0) :: !init)
    m.Ast.ports;
  let channels, channel_error =
    match discover_channels m with
    | prefixes ->
      ( List.map
          (fun prefix ->
            let s suffix = slot (prefix ^ suffix) in
            {
              prefix;
              req = s "_req";
              we = s "_we";
              addr = s "_addr";
              wdata = s "_wdata";
              ack = s "_ack";
              rdata = s "_rdata";
            })
          prefixes,
        None )
    | exception (Rtl_error _ as e) -> ([], Some e)
    | exception (Invalid_argument _ as e) -> ([], Some e)
  in
  (* The kernel arguments bind to the argN input ports. *)
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
  let arg_slots = Array.init n_args (fun i -> slot (Printf.sprintf "arg%d" i)) in
  let writable n = Hashtbl.mem writable n in
  let block = compile_block ~slot ~param ~writable in
  (* Case dispatch; symbolic labels resolve through localparams.  The
     first unresolvable label, then a missing S_IDLE/S_DONE, is the
     module's error — reported by [run], after the argument check. *)
  let module_error = ref None in
  let keyed = Hashtbl.create 32 in
  let default_arm = ref [] in
  (try
     List.iter
       (fun (k, body) ->
         match k with
         | Ast.Knum v -> Hashtbl.replace keyed v body
         | Ast.Kid id -> (
           match param id with
           | Some v -> Hashtbl.replace keyed v body
           | None -> fail "case label %S is not a localparam" id)
         | Ast.Kdefault -> default_arm := body)
       m.Ast.arms
   with Rtl_error _ as e -> module_error := Some e);
  let param_value n =
    match param n with
    | Some v -> v
    | None ->
      if Option.is_none !module_error then
        module_error :=
          Some (Rtl_error (Printf.sprintf "module has no %S localparam" n));
      0
  in
  let s_idle = param_value "S_IDLE" in
  let s_done = param_value "S_DONE" in
  let default_arm = block !default_arm in
  let n_dense =
    Hashtbl.fold
      (fun v _ n -> if v >= 0 && v < dense_limit then max n (v + 1) else n)
      keyed 0
  in
  let dense_arms = Array.make n_dense default_arm in
  let sparse_arms =
    Hashtbl.fold
      (fun v body acc ->
        if v >= 0 && v < dense_limit then begin
          dense_arms.(v) <- block body;
          acc
        end
        else (v, block body) :: acc)
      keyed []
  in
  let reset = block m.Ast.reset in
  let max_commits =
    List.fold_left
      (fun n (_, body) -> max n (count_assigns body))
      (count_assigns m.Ast.reset) m.Ast.arms
  in
  let rst = slot "rst" and start = slot "start" and state = slot "state" in
  let done_ = slot "done" and result = slot "result" in
  let n = Hashtbl.length slots in
  let init_tags = Array.make n undefined and init_vals = Array.make n 0 in
  List.iter
    (fun (i, v) ->
      match v with
      | None -> init_tags.(i) <- x_tag
      | Some v ->
        init_tags.(i) <- known;
        init_vals.(i) <- v)
    (List.rev !init);
  let names = Array.of_list (List.rev !names) in
  {
    mname = m.Ast.mname;
    names;
    fallbacks = Array.map param names;
    init_tags;
    init_vals;
    channels = Array.of_list channels;
    channel_error;
    n_args;
    arg_slots;
    module_error = !module_error;
    reset;
    dense_arms;
    sparse_arms;
    default_arm;
    s_idle;
    s_done;
    rst;
    start;
    state;
    done_;
    result;
    max_commits;
  }

(* ----------------------------- run --------------------------------- *)

let run ?(stats = Accel.fresh_stats ()) ?(ports = 1)
    ?(max_edges = 50_000_000) (p : program) ~(port : Accel.port) ~args =
  Option.iter raise p.channel_error;
  if p.n_args <> List.length args then
    invalid_arg
      (Printf.sprintf "Rtl.Eval.run: %s expects %d args, got %d" p.mname
         p.n_args (List.length args));
  Option.iter raise p.module_error;
  let st =
    {
      vals = Array.copy p.init_vals;
      tags = Array.copy p.init_tags;
      x = false;
      cslot = Array.make p.max_commits 0;
      cval = Array.make p.max_commits 0;
      cx = Array.make p.max_commits false;
      ncommit = 0;
    }
  in
  List.iteri (fun i v -> set st p.arg_slots.(i) v) args;
  let read i = read st i p.names.(i) p.fallbacks.(i) in
  let exec arm =
    st.ncommit <- 0;
    arm st
  in
  let apply () =
    for k = 0 to st.ncommit - 1 do
      let i = st.cslot.(k) in
      if st.cx.(k) then st.tags.(i) <- x_tag else set st i st.cval.(k)
    done
  in
  let channels =
    Array.map
      (fun s -> { s; cst = Idle; cwe = false; caddr = 0; cwdata = 0; rdval = 0 })
      p.channels
  in
  let n_chan = Array.length channels in
  (* Reset edge, then hold start high until done. *)
  set st p.rst 1;
  exec p.reset;
  apply ();
  set st p.rst 0;
  set st p.start 1;
  let requests = ref 0 in
  let edges = ref 0 in
  let finished = ref false in
  let service c =
    if c.cwe then port.Accel.store c.caddr c.cwdata
    else c.rdval <- port.Accel.load c.caddr
  in
  let present c =
    set st c.s.ack 1;
    if not c.cwe then set st c.s.rdata c.rdval;
    c.cst <- Presented
  in
  (* The request a channel will show after this edge's commits: the
     last commit to its [req], else the current value. *)
  let next_req_is_one c =
    let k = ref (st.ncommit - 1) in
    while !k >= 0 && st.cslot.(!k) <> c.s.req do
      decr k
    done;
    if !k >= 0 then (not st.cx.(!k)) && st.cval.(!k) = 1
    else
      let v = read c.s.req in
      (not st.x) && v = 1
  in
  while not !finished do
    incr edges;
    if !edges > max_edges then
      fail "edge budget exceeded (%d edges) — runaway or deadlocked FSM"
        max_edges;
    let sval = read p.state in
    if st.x then fail "state register is X";
    let arm =
      if sval >= 0 && sval < Array.length p.dense_arms then p.dense_arms.(sval)
      else
        match List.assoc_opt sval p.sparse_arms with
        | Some a -> a
        | None -> p.default_arm
    in
    (* Edge accounting, matched against the model's: the edge that
       consumes an ack coalesces with the successor state's entry (a
       memory state costs exactly its access latency), the edge that
       issues requests is the state's entry edge (lanes below advance
       the clock), any other exec-state edge is one pure cycle, and
       the idle/done handshake edges are free — the model has no
       dispatch cost either. *)
    let consume = ref false in
    for k = 0 to n_chan - 1 do
      if channels.(k).cst = Presented then consume := true
    done;
    exec arm;
    if !consume then apply ()
    else begin
      let will_issue = ref false in
      for k = 0 to n_chan - 1 do
        let c = channels.(k) in
        if (not !will_issue) && c.cst = Idle && next_req_is_one c then
          will_issue := true
      done;
      if !will_issue then begin
        apply ();
        stats.Accel.fsm_cycles <- stats.Accel.fsm_cycles + 1
      end
      else if sval <> p.s_idle && sval <> p.s_done then begin
        Engine.wait 1;
        apply ();
        stats.Accel.fsm_cycles <- stats.Accel.fsm_cycles + 1
      end
      else apply ()
    end;
    let d = read p.done_ in
    if st.x then fail "done is X";
    if d <> 0 then finished := true
    else begin
      (* Ack-hold handshake: a presented ack is held until the FSM is
         seen with the request deasserted, then the channel is free
         for the next access. *)
      for k = 0 to n_chan - 1 do
        let c = channels.(k) in
        if c.cst = Presented then begin
          let r = read c.s.req in
          if (not st.x) && r = 0 then begin
            set st c.s.ack 0;
            c.cst <- Idle
          end
        end
      done;
      (* Accept requests (in channel order = the model's instruction
         order) from idle channels whose req samples high. *)
      let accepted = ref [] in
      for k = 0 to n_chan - 1 do
        let c = channels.(k) in
        if c.cst = Idle then begin
          let r = read c.s.req in
          if st.x then
            fail "%s_req is X — the output register has no reset" c.s.prefix;
          if r <> 0 then begin
            let we = read c.s.we in
            if st.x then fail "%s_we is X at issue" c.s.prefix;
            c.cwe <- we <> 0;
            let a = read c.s.addr in
            if st.x then fail "%s_addr is X at issue" c.s.prefix;
            c.caddr <- a;
            c.cwdata <-
              (if c.cwe then begin
                 let v = read c.s.wdata in
                 if st.x then fail "%s_wdata is X at issue" c.s.prefix;
                 v
               end
               else 0);
            incr requests;
            if c.cwe then stats.Accel.stores <- stats.Accel.stores + 1
            else stats.Accel.loads <- stats.Accel.loads + 1;
            accepted := c :: !accepted
          end
        end
      done;
      if !accepted <> [] then begin
        let accepted = List.rev !accepted in
        let now = read p.state in
        if st.x then fail "state register is X";
        if now = sval then begin
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
      for k = 0 to n_chan - 1 do
        if channels.(k).cst = Ready then present channels.(k)
      done
    end
  done;
  let r = read p.result in
  let result = if st.x then None else Some r in
  { result; requests = !requests; edges = !edges }
