module Snapshot = Vp_hsd.Snapshot
module Profile = Vp_aggregate.Profile
module Wire = Vp_aggregate.Wire
module Shard = Vp_aggregate.Shard
module Phase_log = Vp_phase.Phase_log
module Rng = Vp_util.Rng

let src = Logs.Src.create "vacuum.fleet" ~doc:"Fleet profile aggregation"

module Log = (val Logs.src_log src : Logs.LOG)

type t = {
  runs : int;
  classes : (int * Profile.t) list;
  stats : Shard.stats;
  digest : int;
}

(* Mild per-machine perturbation: each emulated user machine sees the
   workload's snapshot stream through its own lossy hardware — a few
   snapshots dropped or delivered twice, a few counters saturated or
   zeroed.  Strong enough that no two machines ship identical streams,
   weak enough that the fleet consensus still recovers the phases. *)
let default_noise =
  Vp_fault.Plan.v ~drop:0.05 ~duplicate:0.03 ~reorder:0.02 ~saturate:0.03
    ~zero_counters:0.01 "fleet-noise"

let emulate_runs ?(config = Config.default) ?(noise = default_noise)
    ?(seed = 42) ~runs (base : Driver.profile) =
  if runs <= 0 then
    Error.failf ~stage:"fleet" "fleet size must be positive (got %d)" runs;
  let counter_max = Config.counter_max config in
  let root = Rng.create ~seed in
  (* Each machine's faults draw from its own splittable stream keyed by
     the run index, so the fleet is identical whatever order (or
     schedule) the runs are materialised in. *)
  List.init runs (fun i ->
      let plan = Vp_fault.Plan.with_seed noise (Rng.stream_seed root i) in
      let snapshots =
        if Vp_fault.Plan.is_clean plan then base.Driver.snapshots
        else
          Vp_fault.Inject.snapshots ~plan ~counter_max base.Driver.snapshots
      in
      { Wire.run_id = i; weight = 1; counter_max; snapshots })

(* Classify a snapshot against the base profile's phase-log
   representatives: first match in ascending phase-id order, [None]
   when no phase claims it.  Pure, so safe on worker domains. *)
let classifier ~config (base : Driver.profile) =
  let same = Vp_phase.Similarity.same ~config:(Config.similarity config) in
  let reps =
    List.map
      (fun (ph : Phase_log.phase) ->
        (ph.Phase_log.id, ph.Phase_log.representative))
      (Phase_log.phases base.Driver.log)
  in
  fun snap ->
    List.find_map
      (fun (id, rep) -> if same rep snap then Some id else None)
      reps

(* Order-fixed FNV mix over the per-class digests: one integer that
   pins down the whole aggregate, printed by [vpack aggregate] so CI
   can assert shard/job invariance by diffing stdout. *)
let digest_classes classes =
  List.fold_left
    (fun h (id, p) ->
      let h = (h lxor id) * 0x100000001b3 land max_int in
      (h lxor Profile.digest p) * 0x100000001b3 land max_int)
    0xbf29ce484222325 classes

let aggregate ?(config = Config.default) ?shards ?jobs ~base wire_runs =
  let counter_max = Config.counter_max config in
  let classify = classifier ~config base in
  let metrics = Config.metrics config in
  (* Stable merge totals are shard/job-invariant; the merge's wall
     time is the [aggregate] span's. *)
  let classes, stats =
    Vp_metrics.Span.record metrics "aggregate"
      ~work:(fun (_, stats) -> stats.Shard.snapshots)
      (fun () ->
        Shard.aggregate_classes ?shards ?jobs ~counter_max ~classify wire_runs)
  in
  Vp_metrics.Counter.bump metrics "aggregate.runs" stats.Shard.runs;
  Vp_metrics.Counter.bump metrics "aggregate.snapshots" stats.Shard.snapshots;
  Vp_metrics.Counter.bump metrics "aggregate.classified" stats.Shard.classified;
  Log.debug (fun m ->
      m "aggregated %d runs (%d snapshots, %d dropped) into %d classes"
        stats.Shard.runs stats.Shard.snapshots stats.Shard.dropped
        (List.length classes));
  {
    runs = stats.Shard.runs;
    classes;
    stats;
    digest = digest_classes classes;
  }

(* One synthetic snapshot per non-empty class, counts scaled back into
   the hardware counter range. *)
let consensus_snapshots ~config t =
  let counter_max = Config.counter_max config in
  List.filter_map
    (fun (id, p) ->
      let s = Profile.to_snapshot ~id ~scale_to:counter_max p in
      if s.Snapshot.branches = [] then None else Some s)
    t.classes

let profile_of_fleet ?(config = Config.default) ~base t =
  Driver.with_snapshots
    ~similarity:(Config.similarity config)
    base
    (consensus_snapshots ~config t)
