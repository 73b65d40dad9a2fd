(** Package transitions (Section 3.3.4).

    Packages sharing a root function cannot all own the single launch
    point, so cold exits of one package are retargeted to the copy of
    the same code in another package — provided the branch site's
    inline context is identical in both.  Links always go to the first
    compatible package to the "right" in a chosen ordering, wrapping;
    the left-most package owns shared launch points.  Orderings are
    ranked by the paper's accumulator formula over per-package ratios
    (incoming links / branch count) and the best ordering wins; the
    Figure 7 worked example (ratios 2/5, 2/5, 3/6 → 0.64) is a unit
    test. *)

type link = {
  from_pkg : int;  (** position of the linking package in the ordering *)
  site : Pkg.site;
  to_pkg : int;  (** position of the target package in the ordering *)
  to_block : int;  (** target block position in [to_pkg] *)
}

type group = {
  root : string;
  ordered : Pkg.t list;
  links : link list;
  rank : float;
}

val rank_of_ratios : float list -> float

val links_for_ordering : Pkg.t list -> link list
(** Rightward-wrapping link resolution for one ordering; links name
    packages by their position in it. *)

val group_packages : ?linking:bool -> Pkg.t list -> group list
(** Group by root (insertion order preserved); with [linking] (default
    true) and more than one package in a group, search orderings
    (exhaustively up to 6 packages, greedily beyond) and keep the best
    by rank.  With [linking] off, groups keep natural order and carry
    no links. *)

type stats = {
  groups : int;
  linked_groups : int;  (** groups that ran the ordering search *)
  orderings_ranked : int;  (** candidate orderings evaluated *)
  greedy_fallbacks : int;  (** groups past the exhaustive-search cap *)
  links_resolved : int;  (** cross-package links resolved *)
}

val group_packages_with_stats :
  ?linking:bool -> Pkg.t list -> group list * stats
(** {!group_packages} plus where the ordering search spent its work. *)

val apply : group list -> Pkg.t list
(** Retarget each linked site's exit block to its cross-package
    destination ({!Pkg.Link}); returns all packages in emission order.
    A linked package is a new one sharing all but its block array with
    its input, which is left as it was. *)
