(** Block and arc weight estimation inside a package from the taken
    probabilities recorded by the HSD — the method of [4] (Section
    5.4): entry blocks inject unit flow, every block forwards its
    weight along its terminator split by taken probability, and the
    system is iterated to an approximate fix-point.  Probabilities are
    clamped away from 1 so every cycle is a contraction and the
    iteration converges. *)

type t

val compute : ?iterations:int -> ?clamp:float -> Vp_package.Pkg.t -> t
(** Defaults: 64 iterations, clamp 0.99.  A round whose weights repeat
    the previous round's bit for bit is a fixed point: the iteration
    stops there, with the weights every later round would give. *)

val of_index : ?iterations:int -> ?clamp:float -> Pkg_flow.t -> t
(** {!compute} over the live blocks of an indexed package. *)

val weights : t -> float array
(** Weights by position of the index (0 for absorbed blocks); not to be
    modified. *)

val arc_at : t -> int -> int -> float
(** {!arc} between positions of the index. *)

val block : t -> string -> float
(** Estimated relative execution weight of a labelled block (0 for
    unknown labels). *)

val arc : t -> string -> string -> float
(** Estimated flow from one block to another; 0 when there is no
    direct terminator edge. *)

val hottest_first : t -> Vp_package.Pkg.t -> Vp_package.Pkg.block list
(** The package's blocks sorted by descending weight. *)
