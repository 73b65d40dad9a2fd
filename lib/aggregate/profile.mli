(** Mergeable weighted fleet profiles.

    One emulated "user machine" run yields a stream of BBB snapshots;
    a fleet of thousands yields thousands of streams that must be
    combined into one packaging decision per binary.  This module is
    the algebra that combination runs on: a {!t} is a weighted
    aggregate over a snapshot multiset, and {!merge} is associative
    and commutative with {!empty} as identity, so any sharding of the
    ingest work — by run, by machine, by data-center rack — folds to
    the same profile.

    {b Saturation censoring.}  The hardware's 9-bit counters are
    lossy: an entry observed at the counter cap says "at least this
    many", not "exactly this many" (the BBB halves on overflow, so the
    true count at snapshot time lies in [[cap, 2*cap)]).  Summing such
    counts as if they were exact would systematically under-weight
    exactly the branches that matter most.  {!merge} therefore carries
    saturated observations as {e censored}: the raw sums stay exact
    lower bounds, a per-entry censored-observation count travels with
    them, and {!estimated_executed} applies the censoring correction
    (one extra cap per censored observation — the midpoint of the
    halving interval) only at read time.  Merging never bakes the
    correction into the sums, which is what keeps the operation
    associative. *)

type entry = {
  pc : int;  (** static address of the conditional branch *)
  obs : int;  (** snapshot entries that contributed *)
  executed : int;  (** exact sum of observed executed counts *)
  taken : int;  (** exact sum of observed taken counts *)
  censored : int;
      (** observations whose executed count sat at the counter cap:
          the [executed] sum is a lower bound by at least this many
          observation intervals *)
}

type t = {
  counter_max : int;  (** the cap the ingested counters saturate at *)
  weight : int;  (** total run weight merged in *)
  runs : int;  (** distinct runs merged in *)
  snapshots : int;  (** snapshots ingested *)
  entries : entry list;  (** canonical form: strictly ascending by pc *)
}

val empty : counter_max:int -> t
(** The merge identity: zero weight, no entries. *)

val of_snapshots : ?weight:int -> counter_max:int -> Vp_hsd.Snapshot.t list -> t
(** Ingest one run's snapshot stream as a profile of [runs = 1] and
    the given [weight] (default 1).  Counts are clamped into
    [[0, counter_max]] through {!Vp_util.Counter.saturating_add} on
    the way in — wire files and faulted streams may carry counts the
    hardware never could — and an entry clamping at (or arriving at)
    the cap is recorded as one censored observation. *)

val merge : t -> t -> t
(** Associative, commutative, with {!empty} as identity: entry lists
    merge-join on pc and every component sums exactly.  Raises a typed
    [Vp_util.Error] when the two profiles disagree on [counter_max] —
    profiles from different counter geometries do not mix. *)

val estimated_executed : t -> entry -> int
(** The censoring-corrected executed count: [executed + censored *
    counter_max].  Monotone in every component — in particular, adding
    a censored observation raises the estimate by at least the cap,
    never lowers it. *)

val branch_count : t -> int

val total_estimated : t -> int
(** Sum of {!estimated_executed} over all entries. *)

val to_snapshot : ?id:int -> ?scale_to:int -> t -> Vp_hsd.Snapshot.t
(** Collapse the profile into one synthetic BBB snapshot for the
    packaging pipeline: censoring-corrected counts are renormalised so
    the hottest branch reads [scale_to] (default [counter_max] — the
    scale every downstream threshold is calibrated to), taken counts
    keep their observed fraction, and branches that round to zero
    weight are dropped (the profile is deliberately lossy, per the
    paper).  [detected_at] is 0 and [ended_at] the ingested snapshot
    count, so the snapshot's extent reflects how much evidence backs
    it. *)

val digest : t -> int
(** FNV-1a digest of the canonical form (counter geometry, weights,
    every entry component), as a non-negative int.  Equal profiles —
    and only equal profiles, up to hash collision — share a digest;
    the CLI uses it to assert shard-count invariance. *)
