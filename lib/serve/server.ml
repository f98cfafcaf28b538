module Histogram = Vmht_obs.Histogram

type worker = {
  mutable pid : int;
  mutable to_w : Unix.file_descr;  (* requests out *)
  mutable from_w : Unix.file_descr;  (* replies in *)
  pending : Proto.request Queue.t;
  inflight : (Proto.request * float) Queue.t;  (* dispatch order *)
}

type t = {
  n_shards : int;
  max_attempts : int;
  window : int;
  store : Store.t option;
  handle : Proto.request -> Proto.outcome;
  workers : worker array;  (* empty when [n_shards = 0] *)
  seen : (string, unit) Hashtbl.t;  (* synthesis keys this server met *)
  mutable submitted : int;
  mutable completed : int;
  mutable failed : int;
  mutable expired : int;
  mutable retried : int;
  mutable deduped : int;
  mutable key_hits : int;
  mutable key_misses : int;
  latency_us : Histogram.t;
  latency_mutex : Mutex.t;  (* in-process path observes from pool domains *)
  mutable alive : bool;
}

type stats = {
  submitted : int;
  completed : int;
  failed : int;
  expired : int;
  retried : int;
  deduped : int;
  key_hits : int;
  key_misses : int;
  latency : Histogram.summary;
}

let now = Unix.gettimeofday

(* [fleet] is every worker record of the server: the child must close
   its copies of the *other* live workers' pipe ends, or the parent
   closing a request pipe would never read as EOF in its worker (a
   sibling forked later still holds the write end) and both shutdown
   and death detection would hang. *)
let spawn ~handle ~fleet (w : worker) =
  let req_r, req_w = Unix.pipe () in
  let rep_r, rep_w = Unix.pipe () in
  match Unix.fork () with
  | 0 ->
    (* Child: serve until the parent closes the request pipe.  Exit
       with [_exit] so the parent's at_exit machinery (and its
       buffered channels, duplicated by fork) never runs here. *)
    Unix.close req_w;
    Unix.close rep_r;
    Array.iter
      (fun (other : worker) ->
        if other != w && other.pid >= 0 then begin
          (try Unix.close other.to_w with Unix.Unix_error _ -> ());
          try Unix.close other.from_w with Unix.Unix_error _ -> ()
        end)
      fleet;
    (try Worker.loop ~handle ~in_fd:req_r ~out_fd:rep_w with _ -> ());
    Unix._exit 0
  | pid ->
    Unix.close req_r;
    Unix.close rep_w;
    w.pid <- pid;
    w.to_w <- req_w;
    w.from_w <- rep_r

let create ?(shards = 0) ?(max_attempts = 3) ?(window = 8) ?store ~handle () =
  let shards = max 0 shards in
  if shards > 0 then Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let workers =
    Array.init shards (fun _ ->
        {
          pid = -1;
          to_w = Unix.stdin;
          from_w = Unix.stdin;
          pending = Queue.create ();
          inflight = Queue.create ();
        })
  in
  Array.iter (fun w -> spawn ~handle ~fleet:workers w) workers;
  {
    n_shards = shards;
    max_attempts = max 1 max_attempts;
    window = max 1 window;
    store;
    handle;
    workers;
    seen = Hashtbl.create 256;
    submitted = 0;
    completed = 0;
    failed = 0;
    expired = 0;
    retried = 0;
    deduped = 0;
    key_hits = 0;
    key_misses = 0;
    latency_us = Histogram.create ();
    latency_mutex = Mutex.create ();
    alive = true;
  }

let shards t = t.n_shards

let observe_latency t seconds =
  Mutex.lock t.latency_mutex;
  Histogram.observe t.latency_us (int_of_float (seconds *. 1e6));
  Mutex.unlock t.latency_mutex

(* Deterministic, process-independent hit accounting: a synthesis
   request is a hit iff its key is already on disk or was seen earlier
   by this server (same batch or a previous one) — exactly the
   requests the store or memo answers without synthesizing. *)
let account t (req : Proto.request) =
  match Proto.synthesis_key req.Proto.job with
  | None -> ()
  | Some key ->
    let hit =
      Hashtbl.mem t.seen key
      ||
      match t.store with
      | Some s -> Store.contains s ~key
      | None -> false
    in
    if hit then t.key_hits <- t.key_hits + 1
    else t.key_misses <- t.key_misses + 1;
    Hashtbl.replace t.seen key ()

let expired_outcome (req : Proto.request) =
  Proto.Failed
    (Printf.sprintf "deadline of %d ms exceeded before dispatch"
       (Option.value req.Proto.deadline_ms ~default:0))

let is_expired ~batch_t0 (req : Proto.request) =
  match req.Proto.deadline_ms with
  | None -> false
  | Some d -> (now () -. batch_t0) *. 1000. >= float_of_int d

let count_outcome (t : t) = function
  | Proto.Failed _ -> t.failed <- t.failed + 1
  | Proto.Synthesized _ | Proto.Executed _ -> t.completed <- t.completed + 1

(* --- in-process substrate ------------------------------------------ *)

let run_inprocess t ~batch_t0 (reqs : Proto.request list) =
  let replies =
    Vmht_par.Parmap.map
      (fun (req : Proto.request) ->
        if is_expired ~batch_t0 req then
          { Proto.rid = req.Proto.rid; outcome = expired_outcome req }
        else begin
          let t0 = now () in
          let outcome =
            try t.handle req with e -> Proto.Failed (Printexc.to_string e)
          in
          observe_latency t (now () -. t0);
          { Proto.rid = req.Proto.rid; outcome }
        end)
      reqs
  in
  List.iter2
    (fun (req : Proto.request) (r : Proto.reply) ->
      if is_expired ~batch_t0 req && r.Proto.outcome = expired_outcome req then
        t.expired <- t.expired + 1;
      count_outcome t r.Proto.outcome)
    reqs replies;
  replies

(* --- sharded substrate --------------------------------------------- *)

let shard_of t (req : Proto.request) =
  let h =
    match Proto.synthesis_key req.Proto.job with
    | Some key -> Hashtbl.hash key
    | None -> Hashtbl.hash req.Proto.rid
  in
  h mod t.n_shards

(* Remove the in-flight record matching [rid] (workers reply in FIFO
   order, so it is almost always the head). *)
let take_inflight (w : worker) rid =
  let items = List.of_seq (Queue.to_seq w.inflight) in
  Queue.clear w.inflight;
  let found = ref None in
  List.iter
    (fun (((req : Proto.request), _) as item) ->
      if Option.is_none !found && req.Proto.rid = rid then found := Some item
      else Queue.add item w.inflight)
    items;
  !found

let run_sharded t ~batch_t0 (reqs : Proto.request list) =
  let expected = List.length reqs in
  let replies : (int, Proto.reply) Hashtbl.t = Hashtbl.create expected in
  let finished = ref 0 in
  (* In-batch dedup: duplicate-key synthesis requests ride on the first
     occurrence (the leader); each gets a clone of its reply. *)
  let followers : (int, int list) Hashtbl.t = Hashtbl.create 16 in
  let leader_of_key : (string, int) Hashtbl.t = Hashtbl.create 16 in
  let leaders =
    List.filter
      (fun (req : Proto.request) ->
        match Proto.synthesis_key req.Proto.job with
        | None -> true
        | Some key -> (
          match Hashtbl.find_opt leader_of_key key with
          | None ->
            Hashtbl.add leader_of_key key req.Proto.rid;
            true
          | Some leader ->
            Hashtbl.replace followers leader
              (req.Proto.rid
              :: Option.value (Hashtbl.find_opt followers leader) ~default:[]);
            false))
      reqs
  in
  let emit rid outcome =
    if not (Hashtbl.mem replies rid) then begin
      Hashtbl.replace replies rid { Proto.rid; outcome };
      count_outcome t outcome;
      incr finished
    end
  in
  let emit_with_followers rid outcome =
    emit rid outcome;
    List.iter
      (fun f ->
        t.deduped <- t.deduped + 1;
        emit f outcome)
      (Option.value (Hashtbl.find_opt followers rid) ~default:[])
  in
  List.iter
    (fun (req : Proto.request) ->
      Queue.add req t.workers.(shard_of t req).pending)
    leaders;
  let handle_death (w : worker) =
    (try Unix.close w.to_w with Unix.Unix_error _ -> ());
    (try Unix.close w.from_w with Unix.Unix_error _ -> ());
    (try ignore (Unix.waitpid [] w.pid) with Unix.Unix_error _ -> ());
    (* Retry what the dead worker held, oldest first, ahead of the
       backlog.  The worker processes its window in FIFO order, so the
       head of [inflight] is the request it died on: only that one is
       charged an attempt (and failed once it has had [max_attempts]);
       the rest were innocent bystanders and requeue unpenalized. *)
    let held = List.of_seq (Queue.to_seq w.inflight) in
    Queue.clear w.inflight;
    let backlog = List.of_seq (Queue.to_seq w.pending) in
    Queue.clear w.pending;
    List.iteri
      (fun i ((req : Proto.request), _) ->
        if i > 0 then Queue.add req w.pending
        else if req.Proto.attempt >= t.max_attempts then
          emit_with_followers req.Proto.rid
            (Proto.Failed
               (Printf.sprintf "worker died (%d attempts)" req.Proto.attempt))
        else begin
          t.retried <- t.retried + 1;
          Queue.add { req with Proto.attempt = req.Proto.attempt + 1 } w.pending
        end)
      held;
    List.iter (fun r -> Queue.add r w.pending) backlog;
    spawn ~handle:t.handle ~fleet:t.workers w
  in
  while !finished < expected do
    (* Fill every worker's window. *)
    Array.iter
      (fun (w : worker) ->
        let filling = ref true in
        while
          !filling
          && Queue.length w.inflight < t.window
          && not (Queue.is_empty w.pending)
        do
          let req = Queue.pop w.pending in
          if Hashtbl.mem replies req.Proto.rid then ()
          else if is_expired ~batch_t0 req then begin
            t.expired <- t.expired + 1;
            emit_with_followers req.Proto.rid (expired_outcome req)
          end
          else
            match Proto.write_msg w.to_w req with
            | () -> Queue.add (req, now ()) w.inflight
            | exception Unix.Unix_error _ ->
              (* Dead on arrival: park it in-flight so the death
                 handler routes it through the retry policy. *)
              Queue.add (req, now ()) w.inflight;
              filling := false;
              handle_death w
        done)
      t.workers;
    if !finished < expected then begin
      let waiting =
        Array.to_list t.workers
        |> List.filter (fun w -> not (Queue.is_empty w.inflight))
      in
      match waiting with
      | [] -> ()  (* everything emitted during fill (expired/failed) *)
      | _ -> (
        let fds = List.map (fun w -> w.from_w) waiting in
        match Unix.select fds [] [] 1.0 with
        | readable, _, _ ->
          List.iter
            (fun fd ->
              let w = List.find (fun w -> w.from_w == fd) waiting in
              match Proto.read_msg w.from_w with
              | Some (reply : Proto.reply) -> (
                match take_inflight w reply.Proto.rid with
                | Some (_, t0) ->
                  observe_latency t (now () -. t0);
                  emit_with_followers reply.Proto.rid reply.Proto.outcome
                | None ->
                  (* Reply to a request we no longer track (e.g. it
                     already failed through the retry path); drop. *)
                  ())
              | None -> handle_death w)
            readable
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ())
    end
  done;
  List.map (fun (req : Proto.request) -> Hashtbl.find replies req.Proto.rid) reqs

(* ------------------------------------------------------------------ *)

let run_batch (t : t) (reqs : Proto.request list) =
  let reqs =
    List.sort
      (fun (a : Proto.request) b -> compare a.Proto.rid b.Proto.rid)
      reqs
  in
  let batch_t0 = now () in
  t.submitted <- t.submitted + List.length reqs;
  List.iter (account t) reqs;
  if t.n_shards = 0 then run_inprocess t ~batch_t0 reqs
  else run_sharded t ~batch_t0 reqs

let stats t =
  Mutex.lock t.latency_mutex;
  let latency = Histogram.summary t.latency_us in
  Mutex.unlock t.latency_mutex;
  {
    submitted = t.submitted;
    completed = t.completed;
    failed = t.failed;
    expired = t.expired;
    retried = t.retried;
    deduped = t.deduped;
    key_hits = t.key_hits;
    key_misses = t.key_misses;
    latency;
  }

let hit_rate (t : t) =
  let keyed = t.key_hits + t.key_misses in
  if keyed = 0 then 0. else float_of_int t.key_hits /. float_of_int keyed

let shutdown t =
  if t.alive then begin
    t.alive <- false;
    (* Close every request pipe before reaping: each close is that
       pipe's last write end, so every worker sees EOF and exits. *)
    Array.iter
      (fun (w : worker) ->
        try Unix.close w.to_w with Unix.Unix_error _ -> ())
      t.workers;
    Array.iter
      (fun (w : worker) ->
        (try ignore (Unix.waitpid [] w.pid) with Unix.Unix_error _ -> ());
        try Unix.close w.from_w with Unix.Unix_error _ -> ())
      t.workers
  end
