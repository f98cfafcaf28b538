(** The end-to-end synthesis flow for one hardware thread:
    parse -> typecheck -> unroll -> lower -> optimize -> schedule ->
    bind -> wrapper synthesis -> RTL emission -> area roll-up.

    The front door is {!Request.t} + {!run}: one record naming what to
    synthesize (an AST, a single-kernel source, or a kernel of a
    multi-kernel program), under which {!Config.t} and wrapper style,
    and whether the process-wide memo may answer. *)

type hw_thread = {
  kernel : Vmht_lang.Ast.kernel;
  fsm : Vmht_hls.Fsm.t;
  style : Wrapper.style;
  datapath_area : Vmht_hls.Optypes.area;
  wrapper_area : Vmht_hls.Optypes.area;
  total_area : Vmht_hls.Optypes.area;
  verilog : string;
  synthesis_seconds : float; (** wall-clock time this flow took *)
}

(** {2 Typed errors}

    Everything the flow can reject — bad user input or a persistent
    store that cannot hold up its end — is one of these; the language
    layer's exceptions stop at this boundary, so callers (the CLIs,
    the eval harness, the batch server) can map errors to messages and
    exit codes without knowing which exceptions the layers below use
    internally. *)

type store_fault =
  | Store_unwritable of string  (** store dir cannot be created/written *)
  | Store_version_mismatch of string
      (** entry written by an incompatible format version (carried) *)
  | Store_corrupt of string  (** truncated / checksum-failed entry *)

type error =
  | Frontend of { loc : Vmht_lang.Loc.t; msg : string }
      (** lexical / syntactic / type / inlining problem at [loc] *)
  | Unknown_kernel of string
      (** the program has no kernel with the requested name *)
  | Store_error of { path : string; fault : store_fault }
      (** the persistent synthesis store failed; only [Store_unwritable]
          ever surfaces from {!run} — mismatched or corrupt entries are
          re-synthesized silently *)

val error_to_string : error -> string

(** {2 Requests} *)

module Request : sig
  type payload =
    | Kernel of Vmht_lang.Ast.kernel  (** already parsed and checked *)
    | Source of string  (** single-kernel source text *)
    | Program of { source : string; kname : string }
        (** multi-kernel source; synthesize kernel [kname] after
            whole-program typecheck and inlining *)

  type t = {
    payload : payload;
    config : Config.t;
    style : Wrapper.style;
    cache : bool;
        (** consult/fill the memo (and any installed persistent
            store); [false] forces a fresh synthesis — benchmarks that
            *measure* synthesis must, or they time a table lookup *)
  }

  val make :
    ?config:Config.t -> ?style:Wrapper.style -> ?cache:bool -> payload -> t
  (** Defaults: {!Config.default}, [Vm_iface], [cache = true]. *)

  val of_kernel :
    ?config:Config.t ->
    ?style:Wrapper.style ->
    ?cache:bool ->
    Vmht_lang.Ast.kernel ->
    t

  val of_source :
    ?config:Config.t -> ?style:Wrapper.style -> ?cache:bool -> string -> t

  val of_program :
    ?config:Config.t ->
    ?style:Wrapper.style ->
    ?cache:bool ->
    name:string ->
    string ->
    t
end

val run : Request.t -> (hw_thread, error) result
(** Execute a synthesis request.  Results are memoized process-wide
    (see {!cache_stats}): a repeat request with a structurally equal
    kernel, the same style and an equal {!Config.fingerprint} returns
    the cached [hw_thread] (the very same value, so its
    [synthesis_seconds] is the original measurement).  The memo is
    single-flight and safe under concurrent callers on multiple
    domains; a persistent backend installed with {!set_store} is
    consulted and written through inside the same single-flight
    window. *)

val run_exn : Request.t -> hw_thread
(** {!run}, raising: {!Vmht_lang.Loc.Error} on front-end errors,
    [Not_found] on unknown kernels, [Sys_error] on store faults. *)

val cache_key : Config.t -> Wrapper.style -> Vmht_lang.Ast.kernel -> string
(** The content-addressed synthesis key: a hex digest over the full
    config fingerprint, the wrapper style, and a structural hash of
    the kernel AST.  Two requests share a key iff they synthesize
    identical hardware; the persistent store and the batch server both
    address results by it. *)

val frontend_program : string -> (Vmht_lang.Ast.program, error) result
(** Parse, typecheck and inline a multi-kernel source — the front-end
    half of a [Program] request, for callers that stop before
    synthesis (e.g. [vmht compile]). *)

(** {2 Persistent store backend}

    The on-disk content-addressed store lives in [vmht_serve]; the
    flow sees it only through this record so a disk hit is promoted
    into the in-memory memo under the same single-flight discipline as
    a fresh synthesis. *)

type store_backend = {
  store_load : key:string -> Vmht_lang.Ast.kernel -> hw_thread option;
      (** [None] is a miss; backends must swallow corrupt or
          version-mismatched entries and report them as misses *)
  store_save :
    key:string -> Vmht_lang.Ast.kernel -> hw_thread -> (unit, error) result;
}

val set_store : store_backend option -> unit
(** Install (or clear) the process-wide persistent backend.  On a memo
    miss the flow first tries [store_load]; on a fresh synthesis it
    calls [store_save] and surfaces a save failure as
    [Error (Store_error _)] from {!run} — the memo keeps the result
    either way. *)

val compile_sw : Config.t -> Vmht_lang.Ast.kernel -> Vmht_ir.Ir.func
(** The software path: the same front end and optimizer, no HLS.  Used
    for software-thread execution and as the Table 5 baseline. *)

val summary : hw_thread -> string

(** {2 Synthesis cache} *)

type cache_stats = {
  cache_hits : int;  (** calls answered from the memo table *)
  cache_misses : int;  (** calls that ran the full flow *)
  cache_entries : int;  (** distinct (kernel, style, config) keys held *)
}

val cache_stats : unit -> cache_stats

val reset_cache : unit -> unit
(** Drop every entry and zero the counters (tests, micro-benchmarks). *)

val sync_cache_metrics : Vmht_obs.Metrics.t -> unit
(** Publish the cache counters into a metrics registry as
    ["flow.synth_cache_hits"/"flow.synth_cache_misses"/
    "flow.synth_cache_entries"]. *)
