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

    Blocks in [protected] (package entries and cross-package
    link targets, which have predecessors this pass cannot see) are
    never absorbed or shortened. *)

type stats = { merged : int; hoisted : int }

val form :
  ?protected:int list -> ?max_hoist:int -> Vp_package.Pkg.t -> Vp_package.Pkg.t * stats
(** The package with its chains merged and its hoists made; the input
    is left as it was.  [protected] holds block positions; absorbed
    blocks leave the order, and their sites move to their absorber.
    [max_hoist] bounds instructions hoisted per branch (default 4). *)
