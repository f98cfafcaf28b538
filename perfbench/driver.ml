(* The closed-loop op driver shared by every workload.

   A workload's op stream is cut into rounds: one round is the
   workload's whole seeded op list, so every round does exactly the
   same work.  Exact counts (simulated cycles, LUTs, IR counts, key
   hits, ...) are accumulated per round and must repeat exactly from
   round to round and between the untraced and the traced run; host
   timings are accumulated per run. *)

type round = {
  counts : (string, int) Hashtbl.t;  (** exact, compared across rounds *)
  sums : (string, float) Hashtbl.t;  (** measured, not compared *)
}

let fresh_round () = { counts = Hashtbl.create 64; sums = Hashtbl.create 16 }
let cur = ref (fresh_round ())

let count name v =
  let c = !cur.counts in
  Hashtbl.replace c name (v + Option.value ~default:0 (Hashtbl.find_opt c name))

let sum name v =
  let c = !cur.sums in
  Hashtbl.replace c name (v +. Option.value ~default:0. (Hashtbl.find_opt c name))

(* Per-run op timings, in the order the ops completed. *)
let latencies : float list ref = ref [] (* ms, newest first *)
let busy = ref 0. (* seconds the system spent on ops *)
let round_peaks : float list ref = ref [] (* peak RSS in MiB, per round *)
let attempted = ref 0
let failures : (int * string) list ref = ref [] (* newest first *)

let reset_run () =
  latencies := [];
  busy := 0.;
  round_peaks := [];
  attempted := 0;
  failures := []

let fail id msg =
  failures := (id, msg) :: !failures;
  Printf.eprintf "FAILED op %d: %s\n%!" id msg

(* Time one closed-loop step carrying the ops [ids]: [run] is the timed
   work, [check] (untimed) returns the ids that came out wrong, with a
   reason.  An exception from [run] fails every op of the step. *)
let step ids run check =
  let n = List.length ids in
  let w0 = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  let r =
    Tracer.op (List.hd ids) (fun () ->
        match run () with v -> Ok v | exception e -> Error (Printexc.to_string e))
  in
  let t1 = Unix.gettimeofday () in
  let w1 = Gc.minor_words () in
  count "host.minor_words" (int_of_float (w1 -. w0));
  let ms = (t1 -. t0) *. 1e3 in
  for _ = 1 to n do
    latencies := ms :: !latencies
  done;
  busy := !busy +. (t1 -. t0);
  attempted := !attempted + n;
  match r with
  | Error msg -> List.iter (fun id -> fail id ("raised " ^ msg)) ids
  | Ok v ->
    Tracer.span "check" (fun () -> check v)
    |> List.iter (fun (id, msg) -> fail id msg)

let op id run check =
  step [ id ] run (fun v ->
      match check v with None -> [] | Some msg -> [ (id, msg) ])

(* --- statistics ------------------------------------------------------ *)

let sorted l =
  let a = Array.of_list l in
  Array.sort compare a;
  a

(* Nearest-rank percentile of a sorted array, [p] in (0, 100]. *)
let percentile a p =
  let n = Array.length a in
  if n = 0 then 0.
  else
    let rank = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
    a.(max 0 (min (n - 1) (rank - 1)))

let median l = percentile (sorted l) 50.

(* Peak resident set of this process since the last [reset_peak_rss],
   in MiB (VmHWM; writing 5 to clear_refs resets it). *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
      Scanf.sscanf
        (String.sub line 6 (String.length line - 6))
        " %d kB"
        (fun kb -> float_of_int kb /. 1024.)
    | _ -> scan ()
    | exception End_of_file -> 0.
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

let reset_peak_rss () =
  let oc = open_out "/proc/self/clear_refs" in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc "5")

(* --- deterministic draws --------------------------------------------- *)

let rng seed salt = Random.State.make [| 0x7e4f; salt; seed |]

let shuffle st l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

let pick st l = List.nth l (Random.State.int st (List.length l))

(* [in_order f] runs [f id] for every op id in [0, n): in a fresh seeded
   order on each call (one call per round), so ordering effects such as
   which ops pay for a major GC slice average out over a run instead of
   repeating identically every round. *)
let seeded_order ~seed ~salt n =
  let round = ref 0 in
  fun f ->
    incr round;
    List.iter f (shuffle (rng seed ((salt * 1_000_003) + !round)) (List.init n Fun.id))

(* --- workloads -------------------------------------------------------- *)

(* What a workload's timed set-up returns. *)
type instance = {
  ops_per_round : int;
  inexact : string list;
      (** counts that legitimately vary between rounds, exempt from the
          exactness check *)
  round : unit -> unit;  (** run the whole seeded op list once *)
  probes : unit -> unit;
      (** the traced run's one-off measurements after its last round *)
}
