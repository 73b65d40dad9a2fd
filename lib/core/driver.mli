(** The end-to-end Vacuum Packing pipeline.

    {!profile} runs the binary once under the Hot Spot Detector,
    collecting phase snapshots, the filtered phase log, and (in the
    same run) a traditional aggregate branch profile for comparison.
    {!rewrite_of_profile} then performs region identification, package
    construction, linking and emission; it is configuration-dependent
    but reuses the profile, so the four Figure 8 configurations share
    one profiling run per workload.

    When the configuration carries a {!Config.fault} plan, the plan is
    injected at the hardware→software boundary: resource faults scale
    the profiling fuel before the run, snapshot faults perturb the
    detector's output after it.  Stage failures and verifier
    rejections never escape as exceptions: the pipeline walks the
    demotion ladder ({!Drop_package} → {!Drop_region} →
    {!Fallback_image}), and every step taken is recorded in
    {!rewrite.demotions} and the [demote.*] counters of
    {!Config.metrics}.  A verifier-attributed drop names its package's
    first violation.  Every emitted image is checked by
    {!Vp_package.Verify} before it is handed to anything that
    simulates it. *)

type profile = {
  image : Vp_prog.Image.t;
  outcome : Vp_exec.Emulator.outcome;  (** the profiled original run *)
  snapshots : Vp_hsd.Snapshot.t list;
  log : Vp_phase.Phase_log.t;
  aggregate : Vp_exec.Branch_profile.t;
      (** per-branch whole-run (executed, taken) *)
  detections : int;  (** raw hardware detections *)
  truncated : bool;
      (** the profiling run exhausted its fuel before halting; any
          metric derived from this profile reflects a partial run.  A
          [Logs] warning is emitted, a structured warning is appended
          to {!profile.warnings}, and the [profile.truncated] counter
          is bumped when this is set. *)
  timeline : Vp_telemetry.t;
      (** per-run interval time-series of the profiling run
          ([profile.instructions], [profile.branches], [profile.hdc],
          [profile.bbb_occupancy], [profile.bbb_candidates] plus
          [detect]/[record]/[rearm] events, all in retired-branch
          stamps).  {!Vp_telemetry.disabled} unless the configuration
          enables telemetry; owned by this profile, so results stay
          byte-identical under any [--jobs] schedule. *)
  warnings : Error.t list;
      (** structured degradation warnings (truncation, an active fault
          plan) — the payloads [vpack stats] and {!Report} surface *)
}

type region_info = {
  phase : Vp_phase.Phase_log.phase;
  region : Vp_region.Region.t;
  stats : Vp_region.Identify.stats;
}

type rung = Drop_package | Drop_region | Fallback_image
(** The demotion ladder, smallest loss first: give up one package,
    give up a region's packages, give up rewriting entirely (the
    emitted image is the original, unmodified). *)

type demotion = { rung : rung; error : Error.t }

type rewrite = {
  source : profile;
  regions : region_info list;
  packages : Vp_package.Pkg.t list;  (** packages that survived screening *)
  emitted : Vp_package.Emit.result;
  demotions : demotion list;  (** ladder steps taken, in order *)
  verification : Vp_package.Verify.report;
      (** soundness report for [emitted.image]; [ok] unless the
          fallback image itself fails — rejected packages were demoted
          away, so the rejections are in [demotions] *)
}

val pp_demotion : Format.formatter -> demotion -> unit

val profile : ?config:Config.t -> Vp_prog.Image.t -> profile

val profile_of_events :
  ?config:Config.t ->
  ?instructions:int ->
  Vp_prog.Image.t ->
  (int * bool) array ->
  profile
(** Build a profile from an {e external} retired-branch stream —
    (pc, taken) per retired conditional branch, e.g. a decoded
    [vp-retire-trace/1] file — without running the emulator.  The
    stream drives the detector exactly as a live run's [on_branch]
    would; fault plans, filtering and counters apply identically, so
    [rewrite_of_profile] packages an ingested profile the same way it
    packages a live one.  Events outside the image still reach the
    detector (hardware records whatever pc retires) but are excluded
    from the aggregate branch profile and reported in [warnings];
    negative pcs are dropped outright.  The synthesized outcome has
    [halted = true], checksum 0 and [instructions] (default: the
    event count), so consumers needing a real run — speedup, the
    differential oracle — must run the image themselves. *)

val with_snapshots :
  ?similarity:Vp_phase.Similarity.config ->
  profile ->
  Vp_hsd.Snapshot.t list ->
  profile
(** Replace a profile's snapshot stream and rebuild its phase log,
    keeping the run outcome and aggregate counts.  This is the single
    entry point for synthetic streams — the aggregate baseline's
    one-phase profile, the fleet aggregator's per-class consensus
    snapshots — so every downstream consumer sees a log built the same
    way the pipeline builds it. *)

type assembly = {
  survivors : Vp_package.Pkg.t list;  (** packages that survived screening *)
  assembled : Vp_package.Emit.result;
  checks : Vp_package.Verify.report;
  drops : demotion list;  (** ladder steps taken, in order *)
}

val assemble :
  ?config:Config.t -> original:Vp_prog.Image.t -> Vp_package.Pkg.t list -> assembly
(** The packaging back half as a standalone primitive: screen the
    given packages (structural validity plus any fault-plan resource
    budgets, measured against [original]), link, emit against the
    pristine [original] image, and verify, walking the demotion ladder
    exactly as {!rewrite_of_profile} does.  [Vacuum.Session] calls
    this every epoch to re-emit its package cache; the one-shot driver
    is now a composition of {!profile}, region/package construction,
    and this. *)

val rewrite_of_profile : ?config:Config.t -> profile -> rewrite

val rewrite : ?config:Config.t -> Vp_prog.Image.t -> rewrite
(** [profile] followed by [rewrite_of_profile]. *)

val rewritten_image : rewrite -> Vp_prog.Image.t
