(* One "process" per SoC; one "thread" track per component instance,
   numbered in order of first appearance so the Perfetto timeline is
   stable across runs of a deterministic simulation.  Component
   instances must already carry distinct names ("mmu", "mmu1", ...) —
   the SoC numbers them at creation — so concurrent instances never
   collapse onto one track. *)

let tids_of_events events =
  let table = Hashtbl.create 16 in
  let order = ref [] in
  List.iter
    (fun (e : Event.t) ->
      if not (Hashtbl.mem table e.Event.component) then begin
        Hashtbl.replace table e.Event.component (Hashtbl.length table + 1);
        order := e.Event.component :: !order
      end)
    events;
  (table, List.rev !order)

let metadata_event ~pid ~tid ~name ~value =
  Json.Obj
    [
      ("name", Json.String name);
      ("ph", Json.String "M");
      ("pid", Json.Int pid);
      ("tid", Json.Int tid);
      ("args", Json.Obj [ ("name", Json.String value) ]);
    ]

let event_json ~pid ~tid (e : Event.t) =
  let common =
    [
      ("name", Json.String (Event.label e.Event.kind));
      ("cat", Json.String e.Event.component);
      ("pid", Json.Int pid);
      ("tid", Json.Int tid);
      ("ts", Json.Int e.Event.at);
      ("args", Json.Obj (Event.args e.Event.kind));
    ]
  in
  if e.Event.duration > 0 then
    Json.Obj
      (common
      @ [ ("ph", Json.String "X"); ("dur", Json.Int e.Event.duration) ])
  else
    (* Instantaneous: thread-scoped instant event. *)
    Json.Obj (common @ [ ("ph", Json.String "i"); ("s", Json.String "t") ])

let group_events ~process_name ~pid events =
  let tids, order = tids_of_events events in
  let metadata =
    metadata_event ~pid ~tid:0 ~name:"process_name" ~value:process_name
    :: List.map
         (fun component ->
           metadata_event ~pid
             ~tid:(Hashtbl.find tids component)
             ~name:"thread_name" ~value:component)
         order
  in
  let trace_events =
    List.map
      (fun (e : Event.t) ->
        event_json ~pid ~tid:(Hashtbl.find tids e.Event.component) e)
      events
  in
  metadata @ trace_events

let wrap ~time_unit trace_events =
  Json.Obj
    [
      ("traceEvents", Json.List trace_events);
      ("displayTimeUnit", Json.String time_unit);
    ]

(* Timestamps are fabric cycles, not microseconds; ns display keeps
   Perfetto from rescaling them confusingly. *)
let to_json ?(process_name = "vmht-soc") ?(pid = 1) events =
  wrap ~time_unit:"ns" (group_events ~process_name ~pid events)

(* {2 Host-time spans} *)

let ts_us ns = Json.Float (float_of_int ns /. 1e3)

let span_json ~pid (s : Span.t) =
  let args =
    ("id", Json.Int s.Span.id)
    ::
    (match s.Span.parent with
    | Some p -> [ ("parent", Json.Int p) ]
    | None -> [])
  in
  Json.Obj
    [
      ("name", Json.String s.Span.name);
      ("cat", Json.String s.Span.cat);
      ("ph", Json.String "X");
      ("pid", Json.Int pid);
      ("tid", Json.Int s.Span.tid);
      ("ts", ts_us s.Span.t0_ns);
      ("dur", ts_us (max 0 (s.Span.t1_ns - s.Span.t0_ns)));
      ("args", Json.Obj args);
    ]

(* A cross-track [flow_from] edge becomes an "s"/"f" pair; same-track
   edges and edges to spans outside the list draw nothing. *)
let flow_json ~pid ~by_id (s : Span.t) =
  match Option.bind s.Span.flow_from (Hashtbl.find_opt by_id) with
  | None -> []
  | Some (src : Span.t) when src.Span.tid = s.Span.tid -> []
  | Some src ->
    let common ph tid ts =
      Json.Obj
        [
          ("name", Json.String s.Span.name);
          ("cat", Json.String "flow");
          ("ph", Json.String ph);
          ("id", Json.Int s.Span.id);
          ("pid", Json.Int pid);
          ("tid", Json.Int tid);
          ("ts", ts_us ts);
        ]
    in
    [
      common "s" src.Span.tid (min src.Span.t1_ns s.Span.t0_ns);
      common "f" s.Span.tid s.Span.t0_ns;
    ]

let of_spans ?(process_name = "vmht") ?(pid = 0) (ss : Span.t list) =
  let by_id = Hashtbl.create 64 in
  List.iter (fun (s : Span.t) -> Hashtbl.replace by_id s.Span.id s) ss;
  let tids =
    List.sort_uniq compare (List.map (fun (s : Span.t) -> s.Span.tid) ss)
  in
  let metadata =
    metadata_event ~pid ~tid:0 ~name:"process_name" ~value:process_name
    :: List.map
         (fun tid ->
           let value =
             if tid = 0 then "main" else Printf.sprintf "worker-%d" tid
           in
           metadata_event ~pid ~tid ~name:"thread_name" ~value)
         tids
  in
  wrap ~time_unit:"ms"
    (metadata
    @ List.map (span_json ~pid) ss
    @ List.concat_map (flow_json ~pid ~by_id) ss)
