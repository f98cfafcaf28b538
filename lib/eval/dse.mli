(** Design-space exploration (the [dse1] experiment and [vmht dse]):
    sweep unroll x banks x opt-level x TLB geometry per kernel, one
    synthesis + simulated run per point over the domain pool, and
    report each kernel's Pareto front over (cycles, LUT). *)

type axes = {
  unrolls : int list;
  banks : int list;
  opts : int list;
  tlbs : int list;
}

val default_axes : axes
(** unroll 1/2/4 x banks 1/2/4 x -O0/-O2 x TLB 8/32. *)

val default_kernels : string list

val default_size : int

type point = {
  kernel : string;
  unroll : int;
  banks : int;
  opt : int;
  tlb : int;
  cycles : int; (** total simulated cycles of the run *)
  lut : int; (** total area (datapath + wrapper) *)
  ff : int;
  pareto : bool; (** on the kernel's (cycles, LUT) front *)
}

val explore :
  ?size:int -> ?axes:axes -> ?kernels:string list -> Vmht.Config.t -> point list
(** Every grid point, kernel-major in grid order, [pareto] marked per
    kernel.  Deterministic at any domain-pool width. *)

val render : ?size:int -> point list -> string
(** One table per kernel: the front sorted by (cycles, LUT, knobs). *)

val manifest :
  ?size:int -> config:Vmht.Config.t -> point list -> Vmht_obs.Json.t
(** The [vmht-dse/1] manifest of a sweep from base [config]: every
    point with its front flag. *)

val run : Vmht.Config.t -> string
(** The registered [dse1] experiment: explore + render the defaults. *)
