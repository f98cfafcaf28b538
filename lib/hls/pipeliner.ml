module Ir = Vmht_ir.Ir
module Ast = Vmht_lang.Ast

type plan = {
  header : Ir.label;
  body : Ir.label;
  exit : Ir.label;
  ii : int;
  depth : int;
  unpipelined_cycles : int;
  rec_mii : int;
  res_mii : int;
}

let lat instr = Optypes.latency (Optypes.classify instr)

let is_mem = function
  | Ir.Load _ | Ir.Store _ -> true
  | Ir.Bin _ | Ir.Un _ | Ir.Mov _ -> false

let is_store = function
  | Ir.Store _ -> true
  | Ir.Load _ | Ir.Bin _ | Ir.Un _ | Ir.Mov _ -> false

(* ------------------------------------------------------------------ *)
(* Loop shape detection                                                *)
(* ------------------------------------------------------------------ *)

(* The lowerer emits while loops as  header(cond) -> body -> header.
   A loop is pipelinable when the body is a single straight-line block
   jumping back to the header and nothing else enters the body. *)
let find_candidate_loops (f : Ir.func) =
  let preds = Ir.predecessors f in
  List.filter_map
    (fun (h : Ir.block) ->
      match h.Ir.term with
      | Ir.Br (_, body_l, exit_l) when body_l <> exit_l -> (
        match Ir.find_block f body_l with
        | b when b.Ir.term = Ir.Jmp h.Ir.label ->
          let body_preds =
            Option.value ~default:[] (Hashtbl.find_opt preds body_l)
          in
          if body_preds = [ h.Ir.label ] then Some (h, b, exit_l) else None
        | _ -> None
        | exception Not_found -> None)
      | Ir.Br _ | Ir.Jmp _ | Ir.Ret _ -> None)
    f.Ir.blocks

(* ------------------------------------------------------------------ *)
(* Streaming-address analysis                                          *)
(* ------------------------------------------------------------------ *)

(* The registers the loop redefines each iteration. *)
let defs_in instrs =
  let defs = Hashtbl.create 16 in
  Array.iter
    (fun i ->
      match Ir.def_of i with
      | Some d ->
        Hashtbl.replace defs d
          (1 + Option.value ~default:0 (Hashtbl.find_opt defs d))
      | None -> ())
    instrs;
  defs

(* The loop's induction registers: regs whose only in-loop definitions
   form the chain  r' = r + imm ; r = r'  (what lowering produces for
   [i = i + 1]), or directly  r = r + imm. *)
let induction_regs instrs defs =
  let inductions = Hashtbl.create 4 in
  Array.iter
    (fun instr ->
      match instr with
      | Ir.Bin (Ast.Add, d, Ir.Reg r, Ir.Imm _)
      | Ir.Bin (Ast.Add, d, Ir.Imm _, Ir.Reg r) -> (
        (* d = r + c; is r then Mov'd back from d (or d = r)? *)
        if d = r && Hashtbl.find_opt defs d = Some 1 then
          Hashtbl.replace inductions r ()
        else
          Array.iter
            (fun instr2 ->
              match instr2 with
              | Ir.Mov (r', Ir.Reg s)
                when r' = r && s = d
                     && Hashtbl.find_opt defs r = Some 1
                     && Hashtbl.find_opt defs d = Some 1 ->
                Hashtbl.replace inductions r ()
              | _ -> ())
            instrs)
      | _ -> ())
    instrs;
  inductions

(* An address register is "streaming" when it is computed inside the
   loop as  base + (ind << k)  with [base] loop-invariant: iterations
   then touch distinct words of distinct arrays (restrict assumption).
   Returns the base register for disjointness comparison. *)
let streaming_base instrs defs inductions addr_op =
  let invariant r = not (Hashtbl.mem defs r) in
  let shifted_induction = function
    | Ir.Reg r ->
      Array.exists
        (fun instr ->
          match instr with
          | Ir.Bin (Ast.Shl, d, Ir.Reg src, Ir.Imm _) ->
            d = r && Hashtbl.mem inductions src
          | _ -> false)
        instrs
    | Ir.Imm _ -> false
  in
  match addr_op with
  | Ir.Reg addr_reg ->
    Array.fold_left
      (fun acc instr ->
        match instr with
        | Ir.Bin (Ast.Add, d, Ir.Reg base, off)
          when d = addr_reg && invariant base && shifted_induction off ->
          Some base
        | Ir.Bin (Ast.Add, d, off, Ir.Reg base)
          when d = addr_reg && invariant base && shifted_induction off ->
          Some base
        | _ -> acc)
      None instrs
  | Ir.Imm _ -> None

let mem_addr_op = function
  | Ir.Load (_, addr) | Ir.Store (addr, _) -> Some addr
  | Ir.Bin _ | Ir.Un _ | Ir.Mov _ -> None

(* ------------------------------------------------------------------ *)
(* Inter-iteration (distance-1) dependence edges                       *)
(* ------------------------------------------------------------------ *)

(* (producer, consumer, delay): start(consumer) >= start(producer) +
   delay - II. *)
let inter_iteration_edges instrs defs inductions =
  let n = Array.length instrs in
  let edges = ref [] in
  (* Register recurrences: the LAST def of r feeds every use of r at or
     before it (those uses read the previous iteration's value). *)
  let last_def = Hashtbl.create 16 in
  Array.iteri
    (fun i instr ->
      match Ir.def_of instr with
      | Some d -> Hashtbl.replace last_def d i
      | None -> ())
    instrs;
  Array.iteri
    (fun u instr ->
      List.iter
        (fun r ->
          match Hashtbl.find_opt last_def r with
          | Some p when u <= p ->
            edges := (p, u, lat instrs.(p)) :: !edges
          | Some _ | None -> ())
        (Ir.uses_of instr))
    instrs;
  (* Memory recurrences, unless provably streaming-disjoint. *)
  let base_of i = mem_addr_op instrs.(i)
    |> Option.map (streaming_base instrs defs inductions)
    |> Option.join
  in
  for p = 0 to n - 1 do
    for u = 0 to n - 1 do
      if
        is_mem instrs.(p) && is_mem instrs.(u)
        && (is_store instrs.(p) || is_store instrs.(u))
      then begin
        let disjoint =
          match (base_of p, base_of u) with
          | Some bp, Some bu ->
            (* Streaming against distinct restrict bases never recurs;
               the same base recurs only if one is a store to the very
               same induction offset — which streaming rules out. *)
            bp <> bu || not (is_store instrs.(p) && is_store instrs.(u))
          | _ -> false
        in
        if not disjoint then edges := (p, u, 1) :: !edges
      end
    done
  done;
  !edges

(* ------------------------------------------------------------------ *)
(* Modulo scheduling                                                   *)
(* ------------------------------------------------------------------ *)

let resource_min_ii resources instrs =
  List.fold_left
    (fun acc cls ->
      let count =
        Array.fold_left
          (fun c i -> if Optypes.classify i = cls then c + 1 else c)
          0 instrs
      in
      if count = 0 then acc
      else
        max acc
          (Vmht_util.Bits.ceil_div count (Schedule.resource_limit resources cls)))
    1 Optypes.all_classes

(* Bank-pressure refinement of the memory resource bound: every access
   conflicting with access [i] (not provably on another bank, [i]
   itself included) competes for the same bank's ports, and such a
   conflict set is mutually conflicting — accesses sharing [i]'s
   symbolic form share its bank residue, and accesses with a different
   form conflict with everything.  So each set is a clique needing
   [ceil (|set| / ports_per_bank)] distinct modulo slots.  With one
   bank this is exactly the old [ceil (mem_count / ports)] bound. *)
let bank_min_ii (m : Schedule.mem_model) instrs addrs =
  let n = Array.length instrs in
  let mii = ref 1 in
  for i = 0 to n - 1 do
    if is_mem instrs.(i) then begin
      let conflicts = ref 0 in
      for j = 0 to n - 1 do
        if is_mem instrs.(j)
           && not (Schedule.Bank.provably_distinct m addrs.(i) addrs.(j))
        then incr conflicts
      done;
      mii := max !mii (Vmht_util.Bits.ceil_div !conflicts m.Schedule.ports_per_bank)
    end
  done;
  !mii

(* Recurrence-constrained minimum II: an inter-iteration edge
   (producer [p], consumer [u], delay) closes a cycle whose intra part
   is the longest dependence path [u ->* p]; any feasible schedule has
   [starts p >= starts u + path], and the inter constraint
   [starts u + ii >= starts p + delay] then forces
   [ii >= delay + path].  Loop-carried load/store chains enter through
   the memory inter edges, so memory recurrences bound the II even
   when ports are plentiful. *)
let recurrence_min_ii instrs intra inter =
  let n = Array.length instrs in
  let longest_path u p =
    (* intra edges only go forward in program order *)
    if u > p then None
    else begin
      let dist = Array.make n min_int in
      dist.(u) <- 0;
      for j = u + 1 to p do
        List.iter
          (fun (i, delay) ->
            if i >= u && dist.(i) > min_int then
              dist.(j) <- max dist.(j) (dist.(i) + delay))
          intra.(j)
      done;
      if dist.(p) > min_int then Some dist.(p) else None
    end
  in
  List.fold_left
    (fun acc (p, u, delay) ->
      match longest_path u p with
      | Some path -> max acc (delay + path)
      | None -> acc)
    1 inter

(* Greedy program-order schedule under intra-iteration dependences and
   the modulo resource table for a fixed II; [None] when the II's
   resource table cannot host the instructions.  Memory slots arbitrate
   through the bank model: an access fits a modulo slot only if the
   slot's whole access set stays admissible. *)
let try_schedule resources ~ii instrs intra_edges addrs =
  let n = Array.length instrs in
  let starts = Array.make n 0 in
  let reservation : (int * Optypes.op_class, int) Hashtbl.t =
    Hashtbl.create 32
  in
  let mem_slots : (int, Schedule.Bank.addr option list) Hashtbl.t =
    Hashtbl.create 8
  in
  let fits slot cls j =
    let slot = slot mod ii in
    Option.value ~default:0 (Hashtbl.find_opt reservation (slot, cls))
    < Schedule.resource_limit resources cls
    && (cls <> Optypes.Mem
       || Schedule.Bank.cycle_ok resources.Schedule.mem
            (addrs.(j)
            :: Option.value ~default:[] (Hashtbl.find_opt mem_slots slot)))
  in
  let reserve slot cls j =
    let slot = slot mod ii in
    let key = (slot, cls) in
    Hashtbl.replace reservation key
      (1 + Option.value ~default:0 (Hashtbl.find_opt reservation key));
    if cls = Optypes.Mem then
      Hashtbl.replace mem_slots slot
        (addrs.(j) :: Option.value ~default:[] (Hashtbl.find_opt mem_slots slot))
  in
  let ok = ref true in
  for j = 0 to n - 1 do
    if !ok then begin
      let earliest =
        List.fold_left
          (fun acc (i, delay) -> max acc (starts.(i) + delay))
          0 intra_edges.(j)
      in
      let cls = Optypes.classify instrs.(j) in
      (* A free modulo slot exists within any window of II slots. *)
      let rec find slot budget =
        if budget = 0 then None
        else if fits slot cls j then Some slot
        else find (slot + 1) (budget - 1)
      in
      match find earliest ii with
      | Some slot ->
        starts.(j) <- slot;
        reserve slot cls j
      | None -> ok := false
    end
  done;
  if !ok then Some starts else None

let plan_loop ~roots resources (h : Ir.block) (b : Ir.block) exit_l =
  let instrs = Array.of_list (h.Ir.instrs @ b.Ir.instrs) in
  if Array.length instrs = 0 then None
  else begin
    let addrs = Schedule.Bank.addr_forms ~roots instrs in
    let intra =
      Schedule.dependence_edges
        ?addrs:
          (if resources.Schedule.mem.Schedule.banks > 1 then Some addrs
           else None)
        instrs
    in
    let defs = defs_in instrs in
    let inductions = induction_regs instrs defs in
    let inter = inter_iteration_edges instrs defs inductions in
    (* What the plain FSM charges per iteration: the (resource-
       unconstrained) ASAP makespans of the two blocks. *)
    let makespan block_instrs =
      let arr = Array.of_list block_instrs in
      let e = Schedule.dependence_edges arr in
      let starts = Array.make (Array.length arr) 0 in
      Array.iteri
        (fun j _ ->
          starts.(j) <-
            List.fold_left (fun acc (i, d) -> max acc (starts.(i) + d)) 0 e.(j))
        arr;
      Array.to_list arr
      |> List.mapi (fun i instr -> starts.(i) + lat instr)
      |> List.fold_left max 1
    in
    let unpipelined_cycles = makespan h.Ir.instrs + makespan b.Ir.instrs in
    let res_mii =
      max
        (resource_min_ii resources instrs)
        (bank_min_ii resources.Schedule.mem instrs addrs)
    in
    let rec_mii = recurrence_min_ii instrs intra inter in
    let min_ii = max res_mii rec_mii in
    let max_ii = max min_ii unpipelined_cycles in
    let rec search ii =
      if ii > max_ii then None
      else
        match try_schedule resources ~ii instrs intra addrs with
        | None -> search (ii + 1)
        | Some starts ->
          let inter_ok =
            List.for_all
              (fun (p, u, delay) -> starts.(u) + ii >= starts.(p) + delay)
              inter
          in
          if inter_ok then Some (ii, starts) else search (ii + 1)
    in
    match search min_ii with
    | None -> None
    | Some (ii, starts) ->
      let depth =
        Array.to_list instrs
        |> List.mapi (fun i instr -> starts.(i) + lat instr)
        |> List.fold_left max ii
      in
      if ii < unpipelined_cycles then
        Some
          {
            header = h.Ir.label;
            body = b.Ir.label;
            exit = exit_l;
            ii;
            depth;
            unpipelined_cycles;
            rec_mii;
            res_mii;
          }
      else None
  end

let plan_loops (f : Ir.func) ~resources =
  let roots = Schedule.Bank.stable_args f in
  List.filter_map
    (fun (h, b, exit_l) -> plan_loop ~roots resources h b exit_l)
    (find_candidate_loops f)
