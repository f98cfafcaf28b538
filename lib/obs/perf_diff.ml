(* Comparison of two bench manifests (vmht-bench-eval/1, /2 or
   vmht-bench/3): the regression gate behind [vmht perf diff].

   Metrics are extracted per experiment (wall seconds, ns/run, and —
   from /2 on — the deterministic simulated-cycle percentiles)
   and per micro benchmark (ns/run), keyed by dotted names.  Only
   metrics present in both manifests are compared; everything else is
   reported as missing so a renamed experiment cannot silently drop
   out of the gate.  A metric regresses when it grows by at least
   [threshold] percent. *)

type row = {
  metric : string;
  old_v : float;
  new_v : float;
  delta_pct : float;
}

type report = {
  rows : row list; (* compared metrics, manifest order *)
  regressions : row list;
  missing : string list; (* metrics present on one side only *)
  unattributed : string list;
      (* experiments with no ns_per_run that are not marked
         "kind": "synthesis" — surfaced so a recording bug cannot
         silently drop an experiment out of the per-run gate *)
}

let get path j =
  List.fold_left (fun acc k -> Option.bind acc (Json.member k)) (Some j) path

let get_float path j = Option.bind (get path j) Json.to_float

(* (metric name, value) pairs in manifest order, plus the names of
   experiments whose ns_per_run is absent without the "synthesis" kind
   explaining why. *)
let extract manifest =
  let acc = ref [] in
  let unattributed = ref [] in
  let push name v = acc := (name, v) :: !acc in
  let named_rows section j =
    match Option.bind (Json.member section j) Json.to_list with
    | None -> []
    | Some rows ->
      List.filter_map
        (fun r ->
          match Option.bind (Json.member "name" r) Json.to_str with
          | Some name -> Some (name, r)
          | None -> None)
        rows
  in
  List.iter
    (fun (name, r) ->
      Option.iter (push (name ^ ".seconds")) (get_float [ "seconds" ] r);
      (match get_float [ "ns_per_run" ] r with
      | Some v -> push (name ^ ".ns_per_run") v
      | None ->
        let kind = Option.bind (Json.member "kind" r) Json.to_str in
        if kind <> Some "synthesis" then
          unattributed := name :: !unattributed);
      List.iter
        (fun q ->
          Option.iter
            (push (Printf.sprintf "%s.cycles.%s" name q))
            (get_float [ "cycles"; q ] r))
        [ "p50"; "p99"; "max" ])
    (named_rows "experiments" manifest);
  List.iter
    (fun (name, r) ->
      Option.iter
        (push ("micro." ^ name ^ ".ns_per_run"))
        (get_float [ "ns_per_run" ] r))
    (named_rows "micro" manifest);
  Option.iter (push "total_seconds") (get_float [ "total_seconds" ] manifest);
  (List.rev !acc, List.rev !unattributed)

let delta_pct old_v new_v =
  if old_v = 0. then if new_v = 0. then 0. else infinity
  else (new_v -. old_v) /. old_v *. 100.

let diff ?(threshold = 10.) ~old_manifest ~new_manifest () =
  let old_metrics, old_unattr = extract old_manifest in
  let new_metrics, new_unattr = extract new_manifest in
  let new_tbl = Hashtbl.create 64 in
  List.iter (fun (k, v) -> Hashtbl.replace new_tbl k v) new_metrics;
  let rows, missing_old =
    List.fold_left
      (fun (rows, missing) (k, old_v) ->
        match Hashtbl.find_opt new_tbl k with
        | Some new_v ->
          ( { metric = k; old_v; new_v; delta_pct = delta_pct old_v new_v }
            :: rows,
            missing )
        | None -> (rows, k :: missing))
      ([], []) old_metrics
  in
  let old_names = List.map fst old_metrics in
  let missing_new =
    List.filter_map
      (fun (k, _) -> if List.mem k old_names then None else Some k)
      new_metrics
  in
  let rows = List.rev rows in
  {
    rows;
    regressions = List.filter (fun r -> r.delta_pct >= threshold) rows;
    missing = List.rev missing_old @ missing_new;
    unattributed =
      old_unattr
      @ List.filter (fun n -> not (List.mem n old_unattr)) new_unattr;
  }

let render ~threshold r =
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Printf.sprintf "%-40s %14s %14s %9s\n" "metric" "old" "new" "delta");
  List.iter
    (fun row ->
      let flag = if row.delta_pct >= threshold then "  REGRESSED" else "" in
      Buffer.add_string buf
        (Printf.sprintf "%-40s %14.4g %14.4g %+8.1f%%%s\n" row.metric row.old_v
           row.new_v row.delta_pct flag))
    r.rows;
  List.iter
    (fun k -> Buffer.add_string buf (Printf.sprintf "%-40s (only in one manifest)\n" k))
    r.missing;
  List.iter
    (fun name ->
      Buffer.add_string buf
        (Printf.sprintf
           "%-40s (no per-run timing recorded and not marked \"synthesis\")\n"
           (name ^ ".ns_per_run")))
    r.unattributed;
  (match r.regressions with
  | [] ->
    Buffer.add_string buf
      (Printf.sprintf "ok: %d metric(s) within +%.1f%%\n" (List.length r.rows)
         threshold)
  | regs ->
    Buffer.add_string buf
      (Printf.sprintf "regression: %d metric(s) slower by >= %.1f%%\n"
         (List.length regs) threshold));
  Buffer.contents buf
