(** Step 2 initialisation (Section 3.2.1): superimpose one hot-spot
    snapshot onto recovered CFGs.

    Every block containing a snapshot branch becomes [Hot] with the
    branch's executed count as weight and taken fraction as taken
    probability.  The branch's out-arcs get weights from the taken and
    executed counters and a temperature: [Hot] when the direction
    carries at least [arc_hot_fraction] of the branch's flow {e or}
    more than [hot_arc_weight_threshold] executions, [Cold]
    otherwise. *)

type config = {
  arc_hot_fraction : float;  (** default 0.25 *)
  hot_arc_weight_threshold : int;  (** default 16, the HSD candidate threshold *)
}

val default : config

type stats = {
  marked : int;  (** snapshot entries superimposed *)
  skipped_no_symbol : int;  (** branch pc outside every symbol *)
  skipped_no_block : int;  (** branch pc in no recovered block *)
  skipped_not_terminator : int;  (** pc is not its block's branch *)
}

val mark_with_stats : ?config:config -> Region.t -> stats
(** Superimpose the snapshot; entries that do not map onto the program
    (hardware noise: BBB aliasing, stale or perturbed entries) are
    skipped and counted, never fatal — the pipeline's contract is to
    survive a lossy profile. *)

val mark : ?config:config -> Region.t -> unit
(** {!mark_with_stats} with the counts discarded. *)
