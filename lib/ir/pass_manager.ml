(* Make sure every builtin pass is in the registry before any schedule
   is built: linking any consumer of the pass manager is enough. *)
let () = Passes.register_builtins ()

type schedule = { sname : string; passes : Pass.t list }

let preset name pass_names =
  {
    sname = name;
    passes =
      List.map
        (fun n ->
          match Pass.find n with
          | Some p -> p
          | None -> invalid_arg ("Pass_manager: unregistered builtin " ^ n))
        pass_names;
  }

let o0 () = { sname = "O0"; passes = [] }

let o1 () = preset "O1" [ "const_fold"; "copy_prop"; "dce"; "simplify_cfg" ]

let o2 () =
  preset "O2"
    [
      "const_fold";
      "copy_prop";
      "cse";
      "store_forward";
      "strength_reduce";
      "licm";
      "dce";
      "coalesce";
      "simplify_cfg";
    ]

let of_opt_level n = if n <= 0 then o0 () else if n = 1 then o1 () else o2 ()

let of_names names =
  let rec resolve acc = function
    | [] -> Ok (List.rev acc)
    | n :: rest -> (
      match Pass.find n with
      | Some p -> resolve (p :: acc) rest
      | None ->
        Error
          (Printf.sprintf "unknown pass %S (known: %s)" n
             (String.concat ", " (Pass.names ()))))
  in
  match resolve [] names with
  | Ok passes -> Ok { sname = "custom:" ^ String.concat "," names; passes }
  | Error _ as e -> e

type pass_stat = { pass : string; runs : int; rewrites : int }

type report = {
  schedule_name : string;
  iterations : int;
  stats : pass_stat list;
  instrs_before : int;
  instrs_after : int;
  blocks_before : int;
  blocks_after : int;
  verify_calls : int;
}

(* Process-wide per-pass totals for the bench manifest.  Guarded by a
   mutex because synthesis runs on the domain pool; sums commute, so
   the result is independent of evaluation order. *)
let totals_mutex = Mutex.create ()

let totals_tbl : (string, int * int) Hashtbl.t = Hashtbl.create 16

let verify_calls_total = ref 0

let account stats verify_calls =
  Mutex.protect totals_mutex (fun () ->
      verify_calls_total := !verify_calls_total + verify_calls;
      List.iter
        (fun s ->
          let runs0, rw0 =
            Option.value (Hashtbl.find_opt totals_tbl s.pass) ~default:(0, 0)
          in
          Hashtbl.replace totals_tbl s.pass (runs0 + s.runs, rw0 + s.rewrites))
        stats)

type totals = { per_pass : pass_stat list; verify_calls : int }

let totals () =
  Mutex.protect totals_mutex (fun () ->
      {
        per_pass =
          Hashtbl.fold
            (fun pass (runs, rewrites) acc -> { pass; runs; rewrites } :: acc)
            totals_tbl []
          |> List.sort (fun a b -> compare a.pass b.pass);
        verify_calls = !verify_calls_total;
      })

let reset_totals () =
  Mutex.protect totals_mutex (fun () ->
      Hashtbl.reset totals_tbl;
      verify_calls_total := 0)

let run ?(verify = true) ?(max_iterations = 20) sched (f : Ir.func) =
  let instrs_before = Ir.instr_count f in
  let blocks_before = Ir.block_count f in
  let verify_calls = ref 0 in
  let check on_error =
    if verify then begin
      incr verify_calls;
      match Verify.run f with
      | () -> ()
      | exception Verify.Error msg -> failwith (on_error msg)
    end
  in
  check (fun msg -> "input IR invalid: " ^ msg);
  let n = List.length sched.passes in
  let runs = Array.make n 0 in
  let rewrites = Array.make n 0 in
  let iterations = ref 0 in
  let rec go () =
    incr iterations;
    let round = ref 0 in
    List.iteri
      (fun i (p : Pass.t) ->
        let c = p.run f in
        check (fun msg ->
            Printf.sprintf "pass %s broke the IR invariants: %s" p.name msg);
        runs.(i) <- runs.(i) + 1;
        rewrites.(i) <- rewrites.(i) + c;
        round := !round + c)
      sched.passes;
    if !round > 0 && !iterations < max_iterations then go ()
  in
  if n > 0 then go ();
  let stats =
    List.mapi
      (fun i (p : Pass.t) ->
        { pass = p.name; runs = runs.(i); rewrites = rewrites.(i) })
      sched.passes
  in
  account stats !verify_calls;
  {
    schedule_name = sched.sname;
    iterations = !iterations;
    stats;
    instrs_before;
    instrs_after = Ir.instr_count f;
    blocks_before;
    blocks_after = Ir.block_count f;
    verify_calls = !verify_calls;
  }

let optimize ?schedule f =
  let sched = match schedule with Some s -> s | None -> o2 () in
  run sched f

let rewrites report name =
  match List.find_opt (fun s -> s.pass = name) report.stats with
  | Some s -> s.rewrites
  | None -> 0

let report_to_string r =
  let per_pass =
    match r.stats with
    | [] -> "no passes"
    | stats ->
      String.concat " "
        (List.map (fun s -> Printf.sprintf "%s=%d" s.pass s.rewrites) stats)
  in
  Printf.sprintf "opt[%s]: %d iter(s), %s, instrs %d -> %d" r.schedule_name
    r.iterations per_pass r.instrs_before r.instrs_after
