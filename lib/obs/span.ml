(* Causal host-time spans over the build/evaluation pipeline.

   Spans are per-domain nested (a domain-local stack supplies the
   parent), stamped with wall-clock nanoseconds, and collected into
   one process-wide list under a mutex at span end.  Cross-domain
   causality (a pool task belongs to the map call that submitted it)
   is a separate [flow_from] edge, captured at submission time, since
   the submitting span lives on a different thread track.

   Global begin/end sequence numbers ([seq0]/[seq1]) give tests a
   clock-independent witness of well-formed nesting: a child's whole
   [seq0, seq1] interval sits strictly inside its parent's. *)

type t = {
  id : int;
  parent : int option; (* enclosing span on the same track *)
  flow_from : int option; (* cross-track causal edge *)
  tid : int;
  name : string;
  cat : string;
  t0_ns : int;
  t1_ns : int;
  seq0 : int;
  seq1 : int;
}

let enabled_flag = Atomic.make false

let enabled () = Atomic.get enabled_flag

let next_id = Atomic.make 1

let next_seq = Atomic.make 1

let m = Mutex.create ()

let collected : t list ref = ref []

type dls = { mutable tid : int option; mutable stack : int list }

let state : dls Domain.DLS.key =
  Domain.DLS.new_key (fun () -> { tid = None; stack = [] })

let set_tid tid = (Domain.DLS.get state).tid <- Some tid

let current_tid () =
  match (Domain.DLS.get state).tid with
  | Some tid -> tid
  | None -> (Domain.self () :> int)

let current_span_id () =
  match (Domain.DLS.get state).stack with [] -> None | id :: _ -> Some id

let reset () =
  Mutex.lock m;
  collected := [];
  Mutex.unlock m

let enable flag =
  if flag && not (Atomic.get enabled_flag) then reset ();
  Atomic.set enabled_flag flag

let now_ns () = int_of_float (Unix.gettimeofday () *. 1e9)

let with_span ?(cat = "flow") ?flow_from name f =
  if not (Atomic.get enabled_flag) then f ()
  else begin
    let d = Domain.DLS.get state in
    let id = Atomic.fetch_and_add next_id 1 in
    let parent = match d.stack with [] -> None | p :: _ -> Some p in
    let tid = current_tid () in
    let seq0 = Atomic.fetch_and_add next_seq 1 in
    let t0 = now_ns () in
    d.stack <- id :: d.stack;
    let finish () =
      (match d.stack with
      | s :: rest when s = id -> d.stack <- rest
      | _ -> ());
      let t1 = now_ns () in
      let seq1 = Atomic.fetch_and_add next_seq 1 in
      let span =
        { id; parent; flow_from; tid; name; cat; t0_ns = t0; t1_ns = t1; seq0; seq1 }
      in
      Mutex.lock m;
      collected := span :: !collected;
      Mutex.unlock m
    in
    Fun.protect ~finally:finish f
  end

let spans () =
  Mutex.lock m;
  let ss = !collected in
  Mutex.unlock m;
  List.sort (fun a b -> compare a.seq0 b.seq0) ss
