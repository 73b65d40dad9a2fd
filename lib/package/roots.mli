(** Root-function selection (Section 3.3.2).

    Over the region call graph (hot call sites between region
    functions), a function is a root when:
    - it has no in-region callers, ignoring call-graph back edges; or
    - it is not inlinable (no prologue, no epilogue, or no hot path
      between them), so no caller can absorb it; or
    - it is self-recursive (one copy may still be inlined into
      itself). *)

type reason = No_callers | Not_inlinable | Self_recursive

type t

val compute : Vp_region.Region.t -> t

val roots : t -> (string * reason list) list
(** Root functions in region insertion order with every reason that
    applies. *)

val view : t -> string -> Prune.view
(** The pruned view of a region function (cached). *)

val inlinable : t -> string -> bool
