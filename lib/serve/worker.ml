module Flow = Vmht.Flow

(* The deterministic projection of a synthesis result (drops the
   wall-clock [synthesis_seconds] and the process-local rest). *)
let synthesized_outcome (hw : Flow.hw_thread) =
  Proto.Synthesized
    {
      kname = hw.Flow.kernel.Vmht_lang.Ast.kname;
      states = hw.Flow.fsm.Vmht_hls.Fsm.stats.Vmht_hls.Fsm.states;
      total_area = hw.Flow.total_area;
      verilog_bytes = String.length hw.Flow.verilog;
    }

let default_handle (req : Proto.request) =
  match req.Proto.job with
  | Proto.Synthesize { kernel; style; config } -> (
    match Flow.run (Flow.Request.of_kernel ~config ~style kernel) with
    | Ok hw -> synthesized_outcome hw
    | Error e -> Proto.Failed (Flow.error_to_string e))
  | Proto.Execute { workload; _ } ->
    Proto.Failed
      (Printf.sprintf
         "no execute handler for workload %S (server started without one)"
         workload)

let loop ~handle ~in_fd ~out_fd =
  let running = ref true in
  while !running do
    match Proto.read_msg in_fd with
    | None -> running := false
    | Some (req : Proto.request) -> (
      let outcome =
        try handle req
        with e -> Proto.Failed (Printexc.to_string e)
      in
      match Proto.write_msg out_fd { Proto.rid = req.Proto.rid; outcome } with
      | () -> ()
      | exception Unix.Unix_error (Unix.EPIPE, _, _) ->
        (* Server is gone; nothing left to serve. *)
        running := false)
  done
