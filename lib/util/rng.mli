(** Deterministic pseudo-random number generation.

    All randomness in the repository flows through this module so that
    every experiment is exactly reproducible.  The generator is
    splitmix64, which has a full 2^64 period and passes BigCrush; it is
    more than adequate for workload synthesis and property tests. *)

type t
(** Mutable generator state. *)

val create : seed:int -> t
(** [create ~seed] makes a fresh generator.  Equal seeds yield equal
    streams. *)

val next : t -> int
(** Next raw 62-bit non-negative value. *)

val int : t -> int -> int
(** [int t bound] draws uniformly from [0, bound).  [bound] must be
    positive. *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] draws uniformly from the inclusive range
    [lo, hi].  Requires [lo <= hi]. *)

val float : t -> float
(** Uniform draw from [0, 1). *)

val bool : t -> float -> bool
(** [bool t p] is true with probability [p]. *)

val split : t -> t
(** Derive an independent generator; advances the parent. *)

val stream : t -> int -> t
(** [stream t key] derives an independent generator keyed by [key]
    {e without} advancing [t]: the result depends only on [t]'s
    current state and the key.  This is the splittable-stream entry
    point for work fanned out across domains — deriving stream [k] for
    every cell of a matrix yields the same generators whatever order
    (or schedule) the cells run in, unlike {!split}.  Distinct keys
    give decorrelated streams. *)

val stream_seed : t -> int -> int
(** The non-negative seed [stream t key] embodies — for APIs that take
    a seed rather than a generator. *)
