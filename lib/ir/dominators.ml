(* One bitset over block positions per block; a CFG of up to
   [Sys.int_size] blocks keeps each dominator set in one word. *)
type t = { cfg : Cfg.t; doms : Bitset.t array }

let compute (f : Ir.func) =
  (* The dataflow runs over the reachable subgraph only: an edge from
     an unreachable block must not take part in a meet, or it would
     empty the dominator set of its (reachable) target.  Unreachable
     blocks get the singleton {b} — nothing dominates code no path
     executes, and no spurious back edge appears from them. *)
  let cfg = Cfg.of_func f in
  let n = Array.length cfg.blocks in
  let reach = Cfg.reachable cfg in
  let preds = Array.make n [] in
  Array.iteri
    (fun p succs ->
      if reach.(p) then Array.iter (fun s -> preds.(s) <- p :: preds.(s)) succs)
    cfg.succs;
  let all = Bitset.create n in
  Array.iteri (fun i r -> if r then Bitset.add all i) reach;
  let doms =
    Array.init n (fun i ->
        if i > 0 && reach.(i) then Array.copy all
        else begin
          let s = Bitset.create n in
          Bitset.add s i;
          s
        end)
  in
  let changed = ref true in
  while !changed do
    changed := false;
    for i = 1 to n - 1 do
      if reach.(i) then begin
        let d = doms.(i) in
        for w = 0 to Array.length d - 1 do
          (* [preds] is non-empty: the block is reachable. *)
          let meet =
            List.fold_left (fun m p -> m land doms.(p).(w)) (-1) preds.(i)
          in
          let meet =
            if w = i / Bitset.word_bits then
              meet lor (1 lsl (i mod Bitset.word_bits))
            else meet
          in
          if meet <> d.(w) then begin
            d.(w) <- meet;
            changed := true
          end
        done
      end
    done
  done;
  { cfg; doms }

let dominates t a b =
  match (Cfg.position t.cfg a, Cfg.position t.cfg b) with
  | -1, _ | _, -1 -> false
  | a, b -> Bitset.mem t.doms.(b) a

let back_edges (f : Ir.func) t =
  List.concat_map
    (fun (b : Ir.block) ->
      List.filter_map
        (fun succ ->
          if dominates t succ b.label then Some (b.label, succ) else None)
        (Ir.successors b.term))
    f.blocks

let natural_loop (f : Ir.func) ~header ~latch =
  let preds = Ir.predecessors f in
  let in_loop = Hashtbl.create 8 in
  Hashtbl.replace in_loop header ();
  let rec visit l =
    if not (Hashtbl.mem in_loop l) then begin
      Hashtbl.replace in_loop l ();
      List.iter visit (Option.value ~default:[] (Hashtbl.find_opt preds l))
    end
  in
  visit latch;
  Hashtbl.fold (fun l () acc -> l :: acc) in_loop []
