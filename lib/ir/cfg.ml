type t = {
  blocks : Ir.block array;
  succs : int array array;
  index : int array;
}

let of_func (f : Ir.func) =
  let blocks = Array.of_list f.Ir.blocks in
  let size =
    Array.fold_left
      (fun m (b : Ir.block) -> max m (b.label + 1))
      f.next_label blocks
  in
  let index = Array.make size (-1) in
  (* Right to left, so a duplicated label resolves like [Ir.find_block]. *)
  for i = Array.length blocks - 1 downto 0 do
    index.(blocks.(i).label) <- i
  done;
  let pos l =
    if l >= 0 && l < size && index.(l) >= 0 then index.(l) else raise Not_found
  in
  let succs =
    Array.map
      (fun (b : Ir.block) ->
        Array.of_list (List.map pos (Ir.successors b.term)))
      blocks
  in
  { blocks; succs; index }

let position t l =
  if l >= 0 && l < Array.length t.index then t.index.(l) else -1

let reachable t =
  let seen = Array.make (Array.length t.blocks) false in
  let rec visit i =
    if not seen.(i) then begin
      seen.(i) <- true;
      Array.iter visit t.succs.(i)
    end
  in
  if Array.length t.blocks > 0 then visit 0;
  seen
