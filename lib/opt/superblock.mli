(** Superblock formation — the "near-global scheduling" scope the
    paper motivates regions with (Section 2): once a package isolates
    a phase's hot code, single-entry fall-through chains can be merged
    into superblocks, widening the list scheduler's window across
    former block boundaries and deleting unconditional jumps outright.

    Two transformations, both semantics-preserving:

    - {e chain merging}: a block ending in an unconditional transfer
      to a block with exactly one package-internal predecessor absorbs
      it (bodies concatenate, the terminator is inherited) — the jump
      disappears and the scheduler sees one straight line;
    - {e speculative hoisting}: pure register computations at the top
      of a branch's single-predecessor fall-through successor move
      above the branch when their results are dead on the taken path —
      classic restricted speculation filling the branch's issue slots.

    Blocks named in [protected] (package entries and cross-package
    link targets, which have predecessors this pass cannot see) are
    never absorbed or shortened. *)

type stats = { merged : int; hoisted : int }

val run : ?protected:string list -> ?max_hoist:int -> Vp_package.Pkg.t ->
  Vp_package.Pkg.t * stats
(** [max_hoist] bounds instructions hoisted per branch (default 4). *)

val form : protected:string list -> ?max_hoist:int -> Pkg_flow.t -> stats
(** {!run} in place on an indexed package: absorbed blocks are marked
    dead and owned by their absorber. *)
