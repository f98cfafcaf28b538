(* serve_mix: one sharded batch server (2 forked shards) over an
   on-disk store that starts empty, driven by one closed-loop generator
   that keeps 2 requests in flight as one [run_batch] of 2.  The stream
   is a 3:1 Synthesize:Execute mix; about a quarter of the synthesize
   jobs carry a key never seen before (store writes), the rest repeat
   an earlier key (memo or disk reads), so the write:read share does
   not depend on run length.

   Every round starts a fresh server over a fresh store directory, so
   each round replays the same stream against the same empty state and
   its hit counts are exact.  The store and handler split comes from an
   in-process replay ([shards = 0]) at the end of the traced run, since
   forked workers cannot return spans; it runs last because the server
   must fork before any domain exists. *)

open Vmht
module Proto = Vmht_serve.Proto
module Server = Vmht_serve.Server
module Store = Vmht_serve.Store
module Workload = Vmht_workloads.Workload

let work_dir = ref "perfbench-work"
let shards = 2
let in_flight = 2
let requests = 720

(* Results of the traced run's one-off probes, read by the report. *)
let proto_roundtrip_us = ref 0.
let store_hit_ratio = ref 0.
let store_saves = ref 0

let exec_size = function "mmul" -> 6 | "bfs" -> 32 | "spmv" -> 64 | _ -> 128

(* One round is 720 requests: 540 synthesize and 180 execute (3:1).
   120 of the synthesize jobs carry a fresh key, one for each kernel x
   unroll {1, 2, 4} x opt {0, 2} x style; the other 420 repeat a key
   seen earlier in the round.  The 180 executions cover kernel x mode x
   unroll {1, 2, 4} x opt {0, 2} once.  The seed draws the order and
   which earlier key each repeat asks for, not the mix, so the designs
   built and the runs executed are the same for every seed. *)
let stream ~seed =
  let st = Driver.rng seed 4 in
  let kernels = List.map (fun w -> (w, Workload.kernel w)) Vmht_workloads.Registry.all in
  let config u o =
    Config.with_seed
      (Config.with_opt_level (Config.with_unroll Config.default u) o)
      seed
  in
  let knobs = List.concat_map (fun u -> List.map (fun o -> (u, o)) [ 0; 2 ]) [ 1; 2; 4 ] in
  let fresh =
    List.concat_map
      (fun (_, kernel) ->
        List.concat_map
          (fun (u, o) ->
            List.map
              (fun style -> (kernel, style, config u o))
              [ Wrapper.Vm_iface; Wrapper.Dma_iface ])
          knobs)
      kernels
  in
  let execs =
    List.concat_map
      (fun (w, _) ->
        List.concat_map
          (fun mode ->
            List.map
              (fun (u, o) ->
                Proto.Execute
                  {
                    workload = w.Workload.name;
                    mode;
                    size = exec_size w.Workload.name;
                    config = config u o;
                  })
              knobs)
          [ Proto.Sw; Proto.Vm; Proto.Dma ])
      kernels
  in
  let fresh = Queue.of_seq (List.to_seq (Driver.shuffle st fresh)) in
  let execs = Queue.of_seq (List.to_seq (Driver.shuffle st execs)) in
  let repeats = 540 - Queue.length fresh in
  (* The first request must be a fresh key: there is nothing to repeat. *)
  let kinds =
    `Fresh
    :: Driver.shuffle st
         (List.init (Queue.length fresh - 1) (fun _ -> `Fresh)
         @ List.init repeats (fun _ -> `Repeat)
         @ List.init (Queue.length execs) (fun _ -> `Exec))
  in
  let seen = ref [||] and n = ref 0 in
  List.mapi
    (fun rid kind ->
      let job =
        match kind with
        | `Fresh ->
          (* Distinct seeds make distinct synthesis keys. *)
          incr n;
          let kernel, style, config = Queue.pop fresh in
          let config = Config.with_seed config (seed + (1000 * !n)) in
          let job = Proto.Synthesize { kernel; style; config } in
          seen := Array.append !seen [| job |];
          job
        | `Repeat -> !seen.(Random.State.int st (Array.length !seen))
        | `Exec -> Queue.pop execs
      in
      { Proto.rid; attempt = 1; deadline_ms = None; job })
    kinds

let rec batches = function
  | [] -> []
  | l ->
    let b = List.filteri (fun i _ -> i < in_flight) l in
    b :: batches (List.filteri (fun i _ -> i >= in_flight) l)

let dirs = ref 0

let with_store f =
  incr dirs;
  let dir =
    Filename.concat !work_dir (Printf.sprintf "store-%d-%d" (Unix.getpid ()) !dirs)
  in
  let st =
    match Store.open_ ~dir () with
    | Ok st -> st
    | Error e -> failwith (Flow.error_to_string e)
  in
  let clean () =
    Flow.set_store None;
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Sys.rmdir dir
  in
  Fun.protect ~finally:clean (fun () -> f st)

let check_reply refs seen_keys (req : Proto.request) (reply : Proto.reply) =
  let want = refs.(req.Proto.rid) in
  match reply.Proto.outcome with
  | Proto.Failed m -> Some ("failed: " ^ m)
  | Proto.Executed { correct = false; _ } -> Some "executed with a wrong result"
  | o when o <> want ->
    Some
      (Printf.sprintf "reply %s, in-process handler %s" (Proto.outcome_to_string o)
         (Proto.outcome_to_string want))
  | Proto.Executed { cycles; _ } ->
    Driver.count "hw_cycles" cycles;
    None
  | Proto.Synthesized { total_area; _ } ->
    let key = Option.get (Proto.synthesis_key req.Proto.job) in
    if not (Hashtbl.mem seen_keys key) then begin
      Hashtbl.add seen_keys key ();
      Driver.count "hw_luts" total_area.Vmht_hls.Optypes.lut
    end;
    None

let drive server refs reqs =
  let seen_keys = Hashtbl.create 64 in
  List.iter
    (fun batch ->
      Driver.step
        (List.map (fun (r : Proto.request) -> r.Proto.rid) batch)
        (fun () -> Server.run_batch server batch)
        (fun replies ->
          List.filter_map
            (fun ((req : Proto.request), reply) ->
              check_reply refs seen_keys req reply
              |> Option.map (fun m -> (req.Proto.rid, m)))
            (List.combine batch replies)))
    (batches reqs)

let prepare ~seed =
  let reqs = stream ~seed in
  (* Reference outcomes from the in-process handler; the memo is
     emptied again so forked workers start cold. *)
  Flow.set_store None;
  Flow.reset_cache ();
  let refs = Array.of_list (List.map Vmht_eval.Loadgen.handle reqs) in
  Flow.reset_cache ();
  let round () =
    with_store (fun st ->
        Store.install st;
        let server = Server.create ~shards ~store:st ~handle:Vmht_eval.Loadgen.handle () in
        Fun.protect
          ~finally:(fun () -> Server.shutdown server)
          (fun () ->
            drive server refs reqs;
            let s = Server.stats server in
            Driver.count "serve.key_hits" s.Server.key_hits;
            Driver.count "serve.key_misses" s.Server.key_misses;
            Driver.count "serve.deduped" s.Server.deduped;
            Driver.count "serve.retried" s.Server.retried;
            Driver.count "serve.failed" s.Server.failed;
            let lat = s.Server.latency in
            Driver.sum "serve.server_p50_ms"
              (float_of_int lat.Vmht_obs.Histogram.p50 /. 1e3);
            Driver.sum "serve.server_mean_ms" (lat.Vmht_obs.Histogram.mean /. 1e3)))
  in
  let probes () =
    (* Proto framing of every request and its reply over a local pipe. *)
    let r, w = Unix.pipe () in
    let t0 = Unix.gettimeofday () in
    List.iter
      (fun (req : Proto.request) ->
        Proto.write_msg w req;
        ignore (Proto.read_msg r : Proto.request option);
        Proto.write_msg w { Proto.rid = req.Proto.rid; outcome = refs.(req.Proto.rid) };
        ignore (Proto.read_msg r : Proto.reply option))
      reqs;
    proto_roundtrip_us := (Unix.gettimeofday () -. t0) *. 1e6 /. float_of_int requests;
    Unix.close r;
    Unix.close w;
    (* In-process replay with the store and the handler wrapped. *)
    with_store (fun st ->
        let b = Store.backend st in
        Flow.set_store
          (Some
             {
               Flow.store_load =
                 (fun ~key k ->
                   Tracer.span "serve.store_load" (fun () -> b.Flow.store_load ~key k));
               store_save =
                 (fun ~key k hw ->
                   Tracer.span "serve.store_save" (fun () -> b.Flow.store_save ~key k hw));
             });
        let handle (req : Proto.request) =
          match req.Proto.job with
          | Proto.Synthesize _ ->
            Tracer.span "serve.handler_synth" (fun () -> Vmht_eval.Loadgen.handle req)
          | Proto.Execute _ ->
            Tracer.span "serve.handler_exec" (fun () -> Vmht_eval.Loadgen.handle req)
        in
        let server = Server.create ~shards:0 ~store:st ~handle () in
        List.iter
          (fun batch ->
            (* One memo serves the whole replay; emptying it before each
               batch sends every repeated key to the disk, so the store's
               read path is what gets timed. *)
            Flow.reset_cache ();
            List.iter2
              (fun (req : Proto.request) (reply : Proto.reply) ->
                if reply.Proto.outcome <> refs.(req.Proto.rid) then
                  Driver.fail req.Proto.rid "in-process replay differs from the reference")
              batch (Server.run_batch server batch))
          (batches reqs);
        Server.shutdown server;
        store_hit_ratio := Store.hit_rate st;
        store_saves := (Store.stats st).Store.saves);
    Flow.reset_cache ()
  in
  {
    Driver.ops_per_round = requests;
    (* The parent's allocation depends on the order in which the shards'
       replies become readable, which is timing, not work. *)
    inexact = [ "host.minor_words" ];
    round;
    probes;
  }
