(** Set-associative LRU cache model shared by the I-cache, D-cache and
    L2 of the timing pipeline. *)

type t

val create : Config.cache_geometry -> t

val access : t -> addr:int -> bool
(** True on hit; a miss installs the line (allocate-on-miss, LRU
    victim). *)

val line_index : t -> int -> int
(** The line number [addr] maps to.  Lets a client model a line
    buffer: a repeat access to the line it just accessed is a
    guaranteed hit (nothing can have evicted it in between) and may
    be skipped without changing any future hit/miss or eviction
    decision — collapsing a contiguous same-line run to its first
    access preserves the per-set order of last touches. *)

val accesses : t -> int
val misses : t -> int

val reset : t -> unit
(** Back to the post-{!create} state: every line invalid, stats
    zeroed.  For pools that reuse the arrays across simulations. *)
