(** The baseline Vacuum Packing argues against: traditional
    {e aggregate} profile packing.

    Instead of one region per detected phase, the whole-run branch
    profile is turned into a single pseudo-snapshot and packaged once.
    The profile is exact (software instrumentation has no saturating
    counters and misses nothing), which is the aggregate approach's
    advantage — but a branch that flips bias between phases averages
    out to unbiased, so the packages cannot specialise, and the layout
    pass loses its direction information exactly on the paper's
    Multi-High branches.

    The bench harness compares coverage and speedup of aggregate
    packing against phase packing on every workload
    ([baseline-aggregate]). *)

val snapshot_of_profile : Driver.profile -> Vp_hsd.Snapshot.t
(** Collapse the whole-run branch profile into one snapshot.  A branch
    qualifies when its executions are at least 0.1% of all retired
    conditional branches — the selection threshold a traditional
    profile-guided optimizer would apply. *)

val rewrite : ?config:Config.t -> Driver.profile -> Driver.rewrite
(** Package the aggregate pseudo-phase under the given configuration;
    the hot-arc threshold is the same 0.1% floor, in branches. *)
