(** Pruned views of marked functions (Section 3.3.1): the hot subgraph
    a package copies, the exits it must preserve, and the
    prologue/epilogue conditions partial inlining depends on.  Live
    registers across exit arcs come from {!Vp_cfg.Liveness} on the
    recovered CFG, so exit blocks can carry sound dummy-consumer
    sets. *)

type view

val view : Vp_region.Region.mf -> view

val mf : view -> Vp_region.Region.mf
val cfg : view -> Vp_cfg.Cfg.t

val hot_blocks : view -> int list

val internal_succs : view -> int -> Vp_cfg.Cfg.arc list
(** Hot arcs to hot blocks. *)

val exit_arcs_of : view -> int -> Vp_cfg.Cfg.arc list
(** Arcs leaving the hot code from this (hot) block. *)

val entry_blocks : view -> int list
(** Hot blocks with no incoming internal arc, CFG back edges
    ignored — the package entry candidates of the root function. *)

val reachable_from_prologue : view -> int list
(** Hot blocks reachable from the function entry through internal
    arcs; inlining copies exactly these. *)

val inlinable : view -> bool
(** Prologue present, and some hot return block is reachable from it
    through hot code — the paper's partial-inlining precondition. *)

val live_across : view -> Vp_cfg.Cfg.arc -> int
