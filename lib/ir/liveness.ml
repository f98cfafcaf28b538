module Regset = Set.Make (Int)

(* Sets of registers are bitsets over [[0, next_reg)], one per block
   position; [Regset] values are built only when a caller asks. *)
type t = {
  cfg : Cfg.t;
  live_in : Bitset.t array;
  live_out : Bitset.t array;
}

let compute (f : Ir.func) =
  let cfg = Cfg.of_func f in
  let n = Array.length cfg.blocks in
  let fresh () = Bitset.create f.Ir.next_reg in
  let use = Array.init n (fun _ -> fresh ()) in
  let def = Array.init n (fun _ -> fresh ()) in
  Array.iteri
    (fun i (b : Ir.block) ->
      (* [use] = registers read before any write in the block. *)
      let read r = if not (Bitset.mem def.(i) r) then Bitset.add use.(i) r in
      List.iter
        (fun instr ->
          List.iter read (Ir.uses_of instr);
          Option.iter (Bitset.add def.(i)) (Ir.def_of instr))
        b.instrs;
      List.iter read (Ir.term_uses b.term))
    cfg.blocks;
  let live_in = Array.init n (fun _ -> fresh ()) in
  let live_out = Array.init n (fun _ -> fresh ()) in
  let words = Array.length (fresh ()) in
  let changed = ref true in
  while !changed do
    changed := false;
    (* Iterate in reverse block order: converges fast for reducible
       CFGs produced by the lowerer. *)
    for i = n - 1 downto 0 do
      let succs = cfg.succs.(i) in
      let out = live_out.(i) and inn = live_in.(i) in
      let use = use.(i) and def = def.(i) in
      for w = 0 to words - 1 do
        let o = ref 0 in
        for k = 0 to Array.length succs - 1 do
          o := !o lor live_in.(succs.(k)).(w)
        done;
        let x = use.(w) lor (!o land lnot def.(w)) in
        if !o <> out.(w) || x <> inn.(w) then begin
          out.(w) <- !o;
          inn.(w) <- x;
          changed := true
        end
      done
    done
  done;
  { cfg; live_in; live_out }

let at sets t label =
  match Cfg.position t.cfg label with
  | -1 -> raise Not_found
  | i -> sets.(i)

let to_regset s = Bitset.fold Regset.add s Regset.empty

let live_in t label = to_regset (at t.live_in t label)

let live_out t label = to_regset (at t.live_out t label)

let live_after_each t (b : Ir.block) =
  let n = List.length b.instrs in
  let result = Array.make (max n 1) Regset.empty in
  let live = ref (live_out t b.label) in
  (* Terminator reads happen "after" the last instruction. *)
  List.iter (fun r -> live := Regset.add r !live) (Ir.term_uses b.term);
  let instrs = Array.of_list b.instrs in
  for i = n - 1 downto 0 do
    result.(i) <- !live;
    (match Ir.def_of instrs.(i) with
     | Some d -> live := Regset.remove d !live
     | None -> ());
    List.iter (fun r -> live := Regset.add r !live) (Ir.uses_of instrs.(i))
  done;
  result

let max_live (f : Ir.func) t =
  List.fold_left
    (fun acc b ->
      let after = live_after_each t b in
      Array.fold_left (fun acc s -> max acc (Regset.cardinal s)) acc after)
    0 f.blocks
