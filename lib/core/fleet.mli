(** Fleet-scale profile aggregation.

    A deployed Vacuum Packing system does not profile on the build
    machine: thousands of user machines each run the binary under
    their own Hot Spot Detector and ship the resulting snapshot stream
    (as [vp-profile-wire/1], {!Vp_aggregate.Wire}) back to an
    aggregation service, which merges them into one consensus profile
    per binary and feeds that to the packaging pipeline.  This module
    is that service's core: it emulates the fleet (each machine is the
    workload's profiling run seen through a mild per-machine fault
    plan), classifies every incoming snapshot against the base run's
    phase log, aggregates per class on a sharded {!Vp_util.Pool}, and
    turns the per-class aggregates back into a {!Driver.profile} the
    existing {!Driver.rewrite_of_profile} path consumes.

    {b Determinism.}  Machine noise draws from {!Vp_util.Rng.stream}
    keyed by run index, and {!Vp_aggregate.Shard} merges in fixed
    order with an associative profile algebra, so the aggregate — and
    its {!t.digest} — is byte-identical for every [shards] and [jobs]
    setting. *)

type t = {
  runs : int;  (** run streams ingested *)
  classes : (int * Vp_aggregate.Profile.t) list;
      (** per-phase-class consensus profiles, sorted by class id (the
          ids of the base profile's phase log) *)
  stats : Vp_aggregate.Shard.stats;
  digest : int;
      (** order-fixed digest of the whole aggregate; equal digests
          mean byte-identical aggregates, whatever sharding produced
          them *)
}

val emulate_runs :
  ?config:Config.t ->
  ?noise:Vp_fault.Plan.t ->
  ?seed:int ->
  runs:int ->
  Driver.profile ->
  Vp_aggregate.Wire.run list
(** Derive [runs] per-machine snapshot streams from one profiling run.
    Machine [i]'s faults are seeded from stream [i] of [seed] (default
    42), so the fleet is a pure function of (profile, noise, seed,
    runs).  Raises a typed {!Error} if [runs <= 0]. *)

val aggregate :
  ?config:Config.t ->
  ?shards:int ->
  ?jobs:int ->
  base:Driver.profile ->
  Vp_aggregate.Wire.run list ->
  t
(** Classify and aggregate a fleet's run streams against [base]'s
    phase log.  The shard merge is one [aggregate] span of the
    config's registry, its work the snapshot count. *)

val profile_of_fleet : ?config:Config.t -> base:Driver.profile -> t -> Driver.profile
(** [base] with its snapshot stream and phase log replaced by the
    fleet consensus ({!Driver.with_snapshots}). *)
