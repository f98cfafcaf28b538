exception Error of string

let fail fmt = Printf.ksprintf (fun msg -> raise (Error msg)) fmt

(* The "<fname>: block L<n>: <text>" prefix of a located message; built
   only once a check has failed. *)
let at f (b : Ir.block) text =
  Printf.sprintf "%s: block L%d: %s" f.Ir.fname b.label text

let check_operand f b instr = function
  | Ir.Imm _ -> ()
  | Ir.Reg r ->
    if r < 0 || r >= f.Ir.next_reg then
      fail "%s: register r%d outside allocator range [0, %d)"
        (at f b (Ir.instr_to_string instr))
        r f.Ir.next_reg

let check_instr f (b : Ir.block) instr =
  (match Ir.def_of instr with
   | Some d ->
     if d < 0 || d >= f.Ir.next_reg then
       fail "%s: defined register r%d outside allocator range [0, %d)"
         (at f b (Ir.instr_to_string instr))
         d f.Ir.next_reg
   | None -> ());
  match instr with
  | Ir.Bin (_, _, a, c) | Ir.Store (a, c) ->
    check_operand f b instr a;
    check_operand f b instr c
  | Ir.Un (_, _, a) | Ir.Mov (_, a) | Ir.Load (_, a) ->
    check_operand f b instr a

(* [has_block] is indexed by label; every label in range has a slot. *)
let check_term f has_block (b : Ir.block) =
  let ctx () = at f b (Ir.term_to_string b.term) in
  List.iter
    (fun r ->
      if r < 0 || r >= f.Ir.next_reg then
        fail "%s: register r%d outside allocator range [0, %d)" (ctx ()) r
          f.Ir.next_reg)
    (Ir.term_uses b.term);
  List.iter
    (fun l ->
      if l < 0 || l >= f.Ir.next_label then
        fail "%s: target L%d outside allocator range [0, %d)" (ctx ()) l
          f.Ir.next_label;
      if not has_block.(l) then fail "%s: target L%d has no block" (ctx ()) l)
    (Ir.successors b.term)

let run (f : Ir.func) =
  (* CFG shape: non-empty, unique labels, in-range counters. *)
  if f.Ir.blocks = [] then fail "%s: function has no blocks" f.Ir.fname;
  let has_block = Array.make (max f.Ir.next_label 0) false in
  List.iter
    (fun (b : Ir.block) ->
      let l = b.Ir.label in
      let in_range = l >= 0 && l < f.Ir.next_label in
      if in_range && has_block.(l) then
        fail "%s: duplicate block label L%d" f.Ir.fname l;
      if not in_range then
        fail "%s: block label L%d outside allocator range [0, %d)" f.Ir.fname
          l f.Ir.next_label;
      has_block.(l) <- true)
    f.blocks;
  List.iter
    (fun (b : Ir.block) ->
      List.iter (check_instr f b) b.instrs;
      check_term f has_block b)
    f.blocks;
  (* Def-before-use on every path: a register live into the entry block
     is one some execution can read before any instruction defines it,
     so only argument registers may appear there. *)
  let info = Liveness.compute f in
  let entry = Ir.entry f in
  let undefined =
    Liveness.Regset.diff
      (Liveness.live_in info entry.Ir.label)
      (Liveness.Regset.of_list f.Ir.arg_regs)
  in
  (match Liveness.Regset.choose_opt undefined with
   | Some r ->
     fail "%s: register r%d may be read before it is defined" f.Ir.fname r
   | None -> ());
  (* Every reachable block is dominated by the entry, and terminators on
     reachable blocks agree with the function's return arity.
     Unreachable blocks are exempt: they keep the [Ret None] placeholder
     terminator until [simplify_cfg] deletes them, which never happens
     under an empty (-O0) schedule. *)
  let reach = Cfg.reachable (Cfg.of_func f) in
  let doms = Dominators.compute f in
  List.iteri
    (fun i (b : Ir.block) ->
      if reach.(i) then begin
        if not (Dominators.dominates doms entry.Ir.label b.Ir.label) then
          fail "%s: entry does not dominate reachable block L%d" f.Ir.fname
            b.Ir.label;
        match (b.Ir.term, f.Ir.returns_value) with
        | Ir.Ret (Some _), false ->
          fail "%s: block L%d returns a value from a void function"
            f.Ir.fname b.Ir.label
        | Ir.Ret None, true ->
          fail "%s: block L%d returns no value from a value function"
            f.Ir.fname b.Ir.label
        | (Ir.Ret _ | Ir.Jmp _ | Ir.Br _), _ -> ()
      end)
    f.blocks

let check f = match run f with () -> Ok () | exception Error msg -> Error msg
