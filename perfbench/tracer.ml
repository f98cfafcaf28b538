(* In-memory span recorder for the traced run.

   Spans are opened and closed by the benchmark's own code around its
   calls into each layer's public functions; nothing inside lib/ is
   probed.  A span has a name, start, end, the span that encloses it
   and the op it belongs to.  Self time is a span's duration minus the
   durations of its direct children.  Spans stay in memory until
   [write] puts them out as a Chrome-trace JSON document. *)

type span = {
  name : string;
  op : int;
  parent : int;  (** index of the enclosing span, -1 at top level *)
  t0 : float;
  mutable t1 : float;
}

let on = ref false
let spans : span array ref = ref [||]
let count = ref 0
let stack : int list ref = ref []
let current_op = ref (-1)

let reset () =
  spans := [||];
  count := 0;
  stack := [];
  current_op := -1

let push s =
  if !count = Array.length !spans then begin
    let bigger = Array.make (max 1024 (2 * !count)) s in
    Array.blit !spans 0 bigger 0 !count;
    spans := bigger
  end;
  !spans.(!count) <- s;
  incr count;
  !count - 1

let parent () = match !stack with p :: _ -> p | [] -> -1

let span name f =
  if not !on then f ()
  else begin
    let id =
      push
        { name; op = !current_op; parent = parent (); t0 = Unix.gettimeofday (); t1 = 0. }
    in
    stack := id :: !stack;
    let close () =
      !spans.(id).t1 <- Unix.gettimeofday ();
      stack := List.tl !stack
    in
    match f () with
    | v ->
      close ();
      v
    | exception e ->
      close ();
      raise e
  end

(* Run [f] as op [id]: every span opened inside carries that op id. *)
let op id f =
  if not !on then f ()
  else begin
    current_op := id;
    Fun.protect ~finally:(fun () -> current_op := -1) (fun () -> span "op" f)
  end

(* Summed self time per span name, in milliseconds. *)
let self_ms () =
  let n = !count in
  let child = Array.make n 0. in
  for i = 0 to n - 1 do
    let s = !spans.(i) in
    if s.parent >= 0 then child.(s.parent) <- child.(s.parent) +. (s.t1 -. s.t0)
  done;
  let tbl = Hashtbl.create 32 in
  for i = 0 to n - 1 do
    let s = !spans.(i) in
    let self = (s.t1 -. s.t0 -. child.(i)) *. 1e3 in
    let prev = Option.value ~default:0. (Hashtbl.find_opt tbl s.name) in
    Hashtbl.replace tbl s.name (prev +. self)
  done;
  tbl

(* Summed total (not self) time per span name, in milliseconds. *)
let total_ms () =
  let tbl = Hashtbl.create 32 in
  for i = 0 to !count - 1 do
    let s = !spans.(i) in
    let prev = Option.value ~default:0. (Hashtbl.find_opt tbl s.name) in
    Hashtbl.replace tbl s.name (prev +. ((s.t1 -. s.t0) *. 1e3))
  done;
  tbl

let write path =
  let oc = open_out path in
  let base = if !count > 0 then !spans.(0).t0 else 0. in
  output_string oc "{\"traceEvents\":[\n";
  for i = 0 to !count - 1 do
    let s = !spans.(i) in
    Printf.fprintf oc
      "%s{\"name\":%S,\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\
       \"args\":{\"id\":%d,\"op\":%d,\"parent\":%d}}\n"
      (if i = 0 then "" else ",")
      s.name
      ((s.t0 -. base) *. 1e6)
      ((s.t1 -. s.t0) *. 1e6)
      i s.op s.parent
  done;
  output_string oc "]}\n";
  close_out oc
