(* Differential test of the bitset dataflow analyses ([Liveness],
   [Dominators]) against straightforward set-based reference versions
   kept here, on random programs run pass by pass through -O2. *)

open Vmht_ir
module Regset = Liveness.Regset

(* ---------------------- reference: set-based liveness -------------- *)

module Ref_liveness = struct
  let block_use_def (b : Ir.block) =
    let read (use, def) r =
      if Regset.mem r def then (use, def) else (Regset.add r use, def)
    in
    let use, def =
      List.fold_left
        (fun acc instr ->
          let use, def = List.fold_left read acc (Ir.uses_of instr) in
          match Ir.def_of instr with
          | Some d -> (use, Regset.add d def)
          | None -> (use, def))
        (Regset.empty, Regset.empty)
        b.instrs
    in
    List.fold_left read (use, def) (Ir.term_uses b.term)

  (* (live_in, live_out) by label. *)
  let compute (f : Ir.func) =
    let live_in = Hashtbl.create 16 and live_out = Hashtbl.create 16 in
    List.iter
      (fun (b : Ir.block) ->
        Hashtbl.replace live_in b.label Regset.empty;
        Hashtbl.replace live_out b.label Regset.empty)
      f.blocks;
    let changed = ref true in
    while !changed do
      changed := false;
      List.iter
        (fun (b : Ir.block) ->
          let out =
            List.fold_left
              (fun acc s -> Regset.union acc (Hashtbl.find live_in s))
              Regset.empty (Ir.successors b.term)
          in
          let use, def = block_use_def b in
          let inn = Regset.union use (Regset.diff out def) in
          if not (Regset.equal out (Hashtbl.find live_out b.label)) then begin
            Hashtbl.replace live_out b.label out;
            changed := true
          end;
          if not (Regset.equal inn (Hashtbl.find live_in b.label)) then begin
            Hashtbl.replace live_in b.label inn;
            changed := true
          end)
        (List.rev f.blocks)
    done;
    (live_in, live_out)

  let live_after_each live_out (b : Ir.block) =
    let instrs = Array.of_list b.instrs in
    let n = Array.length instrs in
    let result = Array.make (max n 1) Regset.empty in
    let live =
      ref
        (List.fold_left
           (fun s r -> Regset.add r s)
           (Hashtbl.find live_out b.label)
           (Ir.term_uses b.term))
    in
    for i = n - 1 downto 0 do
      result.(i) <- !live;
      Option.iter
        (fun d -> live := Regset.remove d !live)
        (Ir.def_of instrs.(i));
      List.iter (fun r -> live := Regset.add r !live) (Ir.uses_of instrs.(i))
    done;
    result
end

(* ---------------------- reference: set-based dominators ------------ *)

module Ref_dominators = struct
  (* Dominator sets by label, over the reachable subgraph; unreachable
     blocks get the singleton {b}. *)
  let compute (f : Ir.func) =
    let entry = (Ir.entry f).Ir.label in
    let reach = Hashtbl.create 16 in
    let rec visit l =
      if not (Hashtbl.mem reach l) then begin
        Hashtbl.replace reach l ();
        List.iter visit (Ir.successors (Ir.find_block f l).term)
      end
    in
    visit entry;
    let all =
      Regset.of_list
        (List.filter_map
           (fun (b : Ir.block) ->
             if Hashtbl.mem reach b.label then Some b.label else None)
           f.blocks)
    in
    let doms = Hashtbl.create 16 in
    List.iter
      (fun (b : Ir.block) ->
        Hashtbl.replace doms b.label
          (if b.label = entry || not (Hashtbl.mem reach b.label) then
             Regset.singleton b.label
           else all))
      f.blocks;
    let preds = Ir.predecessors f in
    let changed = ref true in
    while !changed do
      changed := false;
      List.iter
        (fun (b : Ir.block) ->
          if b.label <> entry && Hashtbl.mem reach b.label then begin
            let preds = Hashtbl.find preds b.label in
            let meet =
              match List.filter (Hashtbl.mem reach) preds with
              | [] -> Regset.empty
              | p :: rest ->
                List.fold_left
                  (fun acc q -> Regset.inter acc (Hashtbl.find doms q))
                  (Hashtbl.find doms p) rest
            in
            let updated = Regset.add b.label meet in
            if not (Regset.equal updated (Hashtbl.find doms b.label)) then begin
              Hashtbl.replace doms b.label updated;
              changed := true
            end
          end)
        f.blocks
    done;
    doms

  let dominates doms a b =
    match Hashtbl.find_opt doms b with
    | Some set -> Regset.mem a set
    | None -> false

  let back_edges (f : Ir.func) doms =
    List.concat_map
      (fun (b : Ir.block) ->
        List.filter_map
          (fun s ->
            if dominates doms s b.label then Some (b.label, s) else None)
          (Ir.successors b.term))
      f.blocks
end

(* ---------------------- the property ------------------------------- *)

(* Wrap the lowered function so its CFG has a reachable self-loop and
   unreachable blocks, one of them a self-loop and one with an edge into
   reachable code:

     E: jmp S      S: br r1 ? S : <old entry>      ...
     U1: jmp U1    U2: jmp S *)
let add_awkward_blocks (f : Ir.func) =
  let old_entry = (Ir.entry f).Ir.label in
  let block term = { Ir.label = Ir.fresh_label f; instrs = []; term } in
  let s = block (Ir.Ret None) in
  s.term <- Ir.Br (Ir.Reg 1, s.label, old_entry);
  let e = block (Ir.Jmp s.label) in
  let u1 = block (Ir.Ret None) in
  u1.term <- Ir.Jmp u1.label;
  let u2 = block (Ir.Jmp s.label) in
  f.blocks <- (e :: s :: f.blocks) @ [ u1; u2 ]

let agrees (f : Ir.func) =
  let info = Liveness.compute f in
  let ref_in, ref_out = Ref_liveness.compute f in
  let doms = Dominators.compute f in
  let ref_doms = Ref_dominators.compute f in
  let labels = List.map (fun (b : Ir.block) -> b.Ir.label) f.blocks in
  (* A label with no block, and one outside the allocator range. *)
  let probes = labels @ [ f.Ir.next_label; f.Ir.next_label + 70; -1 ] in
  List.for_all
    (fun (b : Ir.block) ->
      Regset.equal (Liveness.live_in info b.label) (Hashtbl.find ref_in b.label)
      && Regset.equal
           (Liveness.live_out info b.label)
           (Hashtbl.find ref_out b.label)
      && Array.for_all2 Regset.equal
           (Liveness.live_after_each info b)
           (Ref_liveness.live_after_each ref_out b))
    f.blocks
  && Liveness.max_live f info
     = List.fold_left
         (fun acc b ->
           Array.fold_left
             (fun acc s -> max acc (Regset.cardinal s))
             acc
             (Ref_liveness.live_after_each ref_out b))
         0 f.blocks
  && List.for_all
       (fun a ->
         List.for_all
           (fun b ->
             Dominators.dominates doms a b
             = Ref_dominators.dominates ref_doms a b)
           probes)
       probes
  && Dominators.back_edges f doms = Ref_dominators.back_edges f ref_doms

let prop_matches_reference =
  QCheck.Test.make ~count:300
    ~name:"bitset liveness/dominators = set-based reference, pass by pass"
    (QCheck.make ~print:string_of_int QCheck.Gen.(0 -- 100000))
    (fun seed ->
      let f = Lower.lower_kernel (Gen_prog.gen_kernel seed) in
      if seed mod 2 = 0 then add_awkward_blocks f;
      let passes = (Pass_manager.o2 ()).Pass_manager.passes in
      agrees f
      && List.for_all
           (fun (p : Pass.t) ->
             ignore (p.Pass.run f);
             Verify.run f;
             agrees f)
           (passes @ passes))

let suite = [ QCheck_alcotest.to_alcotest prop_matches_reference ]
