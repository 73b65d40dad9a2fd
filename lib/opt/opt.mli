(** The package transformation pipeline plugged into
    {!Vp_package.Emit.emit}'s [transform] hook: branch flipping and
    hot-chain layout, then local list scheduling. *)

type config = {
  layout : bool;
  scheduling : bool;
  sinking : bool;
      (** exit-block sinking (Section 5.4's suggested redundancy
          elimination).  Off by default, as in the paper's study;
          the [ablation-sink] bench measures it. *)
  superblocks : bool;
      (** superblock formation: chain merging and speculative
          hoisting, widening the scheduler's scope to the region
          level (Section 2's motivation).  On by default. *)
  flip_threshold : float;  (** taken probability above which a branch flips *)
}

val default : config
(** Everything the library offers except sinking: layout, scheduling
    and superblock formation. *)

val paper : config
(** Exactly the paper's Section 5.4 study: relayout and rescheduling
    only — no superblocks, no sinking.  The Figure 8/10 experiment
    configurations use this. *)

val none : config
(** All passes off — the identity transform. *)

val with_sinking : config
(** [default] plus exit-block sinking. *)

val transform :
  ?config:config -> ?protected:int list -> Vp_package.Pkg.t -> Vp_package.Pkg.t
(** [protected] holds the positions of blocks with predecessors outside
    this package (cross-package link targets); superblock formation
    never absorbs them.  Every pass takes and returns a package; the
    result is a new package, sharing every array no pass changed with
    the input, which is left as it was. *)

val transformer :
  ?config:config -> unit -> protected:int list -> Vp_package.Pkg.t -> Vp_package.Pkg.t
(** [transform] for the packages of one rewrite, as
    {!Vp_package.Emit.of_groups}' hook: the packages it transforms share
    one schedule per distinct body (see {!Schedule.t}).  Make one per
    rewrite; the output is [transform]'s. *)
