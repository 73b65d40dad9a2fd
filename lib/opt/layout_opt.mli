(** Package code layout (Section 5.4 "relayout"): flip biased branches
    so the likely direction falls through, then greedily chain blocks
    so hot arcs become adjacent and exit blocks sink to the bottom —
    the Hot-Cold-Optimization-style placement the package structure
    enables. *)

val relayout : ?threshold:float -> Vp_package.Pkg.t -> Vp_package.Pkg.t
(** Negate branch conditions whose taken probability exceeds
    [threshold] (default 0.5) so the hot direction falls through,
    updating their taken probabilities; then order the live blocks into
    hot chains from weights estimated on the flipped package: start
    from the hottest unplaced block (entries first), repeatedly append
    the heaviest-flow unplaced successor; exit blocks sink to the end.
    The input is left as it was. *)
