(** Package code layout (Section 5.4 "relayout"): flip biased branches
    so the likely direction falls through, then greedily chain blocks
    so hot arcs become adjacent and exit blocks sink to the bottom —
    the Hot-Cold-Optimization-style placement the package structure
    enables. *)

val flip_branches : ?threshold:float -> Vp_package.Pkg.t -> Vp_package.Pkg.t
(** Negate branch conditions whose taken probability exceeds
    [threshold] (default 0.5) so the hot direction falls through;
    taken probabilities are updated accordingly. *)

val order_blocks : Weights.t -> Vp_package.Pkg.t -> Vp_package.Pkg.t
(** Reorder blocks into hot chains: start from the hottest unplaced
    block, repeatedly append the heaviest-flow unplaced successor;
    exit blocks always sink to the end. *)

val run : Vp_package.Pkg.t -> Vp_package.Pkg.t
(** [flip_branches] followed by [order_blocks] with freshly computed
    weights. *)

val relayout : threshold:float -> Pkg_flow.t -> unit
(** {!run} in place on an indexed package: it sets the index's block
    order. *)
