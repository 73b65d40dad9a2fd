(** Block and arc weight estimation inside a package from the taken
    probabilities recorded by the HSD — the method of [4] (Section
    5.4): entry blocks inject unit flow, every block forwards its
    weight along its terminator split by taken probability, and the
    system is iterated to an approximate fix-point.  Probabilities are
    clamped away from 1 so every cycle is a contraction and the
    iteration converges. *)

type t

val estimate : ?iterations:int -> ?clamp:float -> Vp_package.Pkg.t -> t
(** Weights of the package's live blocks.  Defaults: 64 iterations,
    clamp 0.99.  A round whose weights repeat the previous round's bit
    for bit is a fixed point: the iteration stops there, with the
    weights every later round would give. *)

val weights : t -> float array
(** Weights by block position (0 for a block in no order); not to be
    modified. *)

val arc_at : t -> int -> int -> float
(** Estimated flow from one block position to another; 0 when there is
    no direct terminator edge. *)
