module Emulator = Vp_exec.Emulator
module Compile = Vp_exec.Compile
module Decode = Vp_exec.Decode
module Detector = Vp_hsd.Detector
module Phase_log = Vp_phase.Phase_log
module Identify = Vp_region.Identify
module Build = Vp_package.Build
module Linking = Vp_package.Linking
module Emit = Vp_package.Emit
module Pkg = Vp_package.Pkg
module Verify = Vp_package.Verify
module Span = Vp_metrics.Span
module Counter = Vp_metrics.Counter

let src = Logs.Src.create "vacuum.driver" ~doc:"Vacuum pipeline driver"

module Log = (val Logs.src_log src : Logs.LOG)

type profile = {
  image : Vp_prog.Image.t;
  outcome : Emulator.outcome;
  snapshots : Vp_hsd.Snapshot.t list;
  log : Phase_log.t;
  aggregate : Vp_exec.Branch_profile.t;
  detections : int;
  truncated : bool;
  timeline : Vp_telemetry.t;
  warnings : Error.t list;
}

type region_info = {
  phase : Phase_log.phase;
  region : Vp_region.Region.t;
  stats : Identify.stats;
}

type rung = Drop_package | Drop_region | Fallback_image

type demotion = { rung : rung; error : Error.t }

type rewrite = {
  source : profile;
  regions : region_info list;
  packages : Vp_package.Pkg.t list;
  emitted : Emit.result;
  demotions : demotion list;
  verification : Verify.report;
}

let rung_name = function
  | Drop_package -> "drop-package"
  | Drop_region -> "drop-region"
  | Fallback_image -> "fallback-image"

let pp_demotion ppf d =
  Format.fprintf ppf "%s: %a" (rung_name d.rung) Error.pp d.error

(* The software back half of profiling, shared by the emulator-driven
   [profile] and the external-trace [profile_of_events]: fault
   injection at the hardware→software boundary, detector and filter
   accounting, phase-log construction, truncation warnings. *)
let finish_profile ~config ~image ~fuel ~outcome ~detector ~executed ~takens
    ~timeline ~extra_warnings =
  let metrics = Config.metrics config in
  Vp_metrics.Histogram.observe metrics "driver.profile.instructions"
    outcome.Emulator.instructions;
  let aggregate = Vp_exec.Branch_profile.of_counts ~executed ~takens in
  let plan = Config.fault config in
  let snapshots = Detector.snapshots detector in
  let snapshots, fault_warnings =
    match plan with
    | Some plan when not (Vp_fault.Plan.is_clean plan) ->
      let counter_max = Config.counter_max config in
      let faulted = Vp_fault.Inject.snapshots ~plan ~counter_max snapshots in
      Counter.bump metrics "fault.runs" 1;
      ( faulted,
        [
          Error.v ~stage:"fault" "plan %s active (%d -> %d snapshots)"
            plan.Vp_fault.Plan.name (List.length snapshots)
            (List.length faulted);
        ] )
    | _ -> (snapshots, [])
  in
  Counter.bump metrics "detector.detections" (Detector.detections detector);
  Counter.bump metrics "detector.rearms" (Detector.rearms detector);
  Counter.bump metrics "detector.recordings" (Detector.recordings detector);
  Counter.bump metrics "detector.history_suppressed"
    (Detector.history_suppressed detector);
  let log, filter_stats =
    Phase_log.build_with_stats ~similarity:(Config.similarity config) snapshots
  in
  Counter.bump metrics "phases.merged" filter_stats.Phase_log.merged;
  Counter.bump metrics "phases.unique" filter_stats.Phase_log.new_classes;
  Counter.bump metrics "phases.rejected_missing"
    filter_stats.Phase_log.rejected_missing;
  Counter.bump metrics "phases.rejected_bias_flips"
    filter_stats.Phase_log.rejected_bias_flips;
  let truncated = not outcome.Emulator.halted in
  let truncation_warnings =
    if truncated then begin
      Counter.bump metrics "profile.truncated" 1;
      Log.warn (fun m ->
          m
            "profile truncated: fuel (%d) exhausted after %d instructions; \
             coverage and speedup would reflect a partial run"
            fuel outcome.Emulator.instructions);
      [
        Error.v ~stage:"profile"
          "truncated: fuel (%d) exhausted after %d instructions" fuel
          outcome.Emulator.instructions;
      ]
    end
    else []
  in
  {
    image;
    outcome;
    snapshots;
    log;
    aggregate;
    detections = Detector.detections detector;
    truncated;
    timeline;
    warnings = truncation_warnings @ fault_warnings @ extra_warnings;
  }

let profile ?(config = Config.default) image =
  let metrics = Config.metrics config in
  Span.record metrics "profile"
    ~work:(fun p -> p.outcome.Emulator.instructions)
  @@ fun () ->
  let same = Vp_phase.Similarity.same ~config:(Config.similarity config) in
  let detector =
    Detector.create ~config:(Config.detector config)
      ~history_size:(Config.history_size config) ~same ()
  in
  (* Per-run timeline: created fresh for this profile run so traces
     are deterministic regardless of how runs are scheduled across
     domains.  When telemetry is off this is the shared [disabled]
     value, and the run observer never touches the sampler. *)
  let tl = Vp_telemetry.create (Config.metrics config) in
  let telemetry_on = Vp_telemetry.enabled tl in
  let s_instr = Vp_telemetry.Series.register tl "profile.instructions" in
  let s_branch = Vp_telemetry.Series.register tl "profile.branches" in
  let s_hdc = Vp_telemetry.Series.register tl "profile.hdc" in
  let s_occ = Vp_telemetry.Series.register tl "profile.bbb_occupancy" in
  let s_cand = Vp_telemetry.Series.register tl "profile.bbb_candidates" in
  let last_branches = ref 0 in
  let sampler =
    Vp_telemetry.Sampler.create tl ~flush:(fun n ->
        Vp_telemetry.Series.push tl s_instr n;
        let b = Detector.branches_seen detector in
        Vp_telemetry.Series.push tl s_branch (b - !last_branches);
        last_branches := b;
        Vp_telemetry.Series.push tl s_hdc (Detector.hdc_value detector);
        Vp_telemetry.Series.push tl s_occ (Detector.bbb_occupancy detector);
        Vp_telemetry.Series.push tl s_cand (Detector.bbb_candidates detector))
  in
  (* Detector events fire on a branch, just before it retires: stamp
     them with the retired-instruction count that includes that
     branch, the clock the series are sampled on. *)
  if telemetry_on then begin
    let at () = Vp_telemetry.Sampler.at sampler in
    Detector.set_hooks detector
      ~on_detect:(fun ~branches:_ ~detections ->
        Vp_telemetry.Event.emit tl ~kind:"detect" ~at:(at ()) ~value:detections)
      ~on_record:(fun ~branches:_ ~id ->
        Vp_telemetry.Event.emit tl ~kind:"record" ~at:(at ()) ~value:id)
      ~on_rearm:(fun ~branches:_ ~rearms ->
        Vp_telemetry.Event.emit tl ~kind:"rearm" ~at:(at ()) ~value:rearms)
  end;
  (* The profiler observes retirement runs: a run ending in a
     conditional branch feeds the detector and the pc-indexed counters
     once — two array bumps and the detector call, no hashing, no tuple
     allocation.  The same arrays back the aggregate-profile consumers
     (fig9, the aggregate baseline) via {!Vp_exec.Branch_profile}.  The
     detector state is constant over a run's prefix, so the prefix's
     interval boundaries flush before the branch is fed. *)
  let tag = (Compile.decode (Compile.of_image image)).Decode.tag in
  let n = Vp_prog.Image.size image in
  let executed = Array.make n 0 in
  let takens = Array.make n 0 in
  let on_run ~addrs:_ ~start ~len ~taken ~next_pc:_ =
    let pc = start + len - 1 in
    let t = tag.(pc) in
    if t = Decode.tag_br || t = Decode.tag_br_unresolved then begin
      if telemetry_on then Vp_telemetry.Sampler.advance sampler (len - 1);
      Detector.on_branch detector ~pc ~taken;
      executed.(pc) <- executed.(pc) + 1;
      if taken then takens.(pc) <- takens.(pc) + 1;
      if telemetry_on then Vp_telemetry.Sampler.advance sampler 1
    end
    else if telemetry_on then Vp_telemetry.Sampler.advance sampler len
  in
  (* Resource faults scale the fuel budget before the run; snapshot
     faults perturb the detector's output after it.  Both happen at
     the hardware→software boundary — the emulator, the detector and
     the run observer never see the plan. *)
  let plan = Config.fault config in
  let fuel =
    match plan with
    | None -> Config.fuel config
    | Some plan -> Vp_fault.Inject.fuel ~plan (Config.fuel config)
  in
  let outcome =
    Emulator.run_backend ~backend:(Config.backend config) ~fuel
      ~mem_words:(Config.mem_words config) ~on_run image
  in
  Vp_telemetry.Sampler.finish sampler;
  finish_profile ~config ~image ~fuel ~outcome ~detector ~executed ~takens
    ~timeline:tl ~extra_warnings:[]

(* External-trace ingestion: the same software pipeline fed by a
   recorded (pc, taken) stream — a [vp-retire-trace/1] file, a PMU
   shim — instead of a live emulator run.  The detector replays the
   stream exactly as [on_branch] would have seen it; events whose pc
   falls outside the image (a trace captured against a different
   build, or hostile input) still reach the detector — real hardware
   records whatever pc retires — but are excluded from the pc-indexed
   aggregate arrays and surfaced as a warning.  The outcome is
   synthesized ([halted = true], no checksum), so speedup numbers that
   need a real run are out of scope; packaging, verification and
   rewriting are not. *)
let profile_of_events ?(config = Config.default) ?(instructions = 0) image
    events =
  let metrics = Config.metrics config in
  Span.record metrics "ingest"
    ~work:(fun p -> p.outcome.Emulator.cond_branches)
  @@ fun () ->
  let same = Vp_phase.Similarity.same ~config:(Config.similarity config) in
  let detector =
    Detector.create ~config:(Config.detector config)
      ~history_size:(Config.history_size config) ~same ()
  in
  let tl = Vp_telemetry.create (Config.metrics config) in
  let n = Vp_prog.Image.size image in
  let executed = Array.make n 0 in
  let takens = Array.make n 0 in
  let alien = ref 0 in
  Array.iter
    (fun (pc, taken) ->
      if pc < 0 then incr alien
      else begin
        Detector.on_branch detector ~pc ~taken;
        if pc < n then begin
          executed.(pc) <- executed.(pc) + 1;
          if taken then takens.(pc) <- takens.(pc) + 1
        end
        else incr alien
      end)
    events;
  let cond_branches = Array.length events in
  let instructions = if instructions > 0 then instructions else cond_branches in
  let outcome =
    {
      Emulator.instructions;
      package_instructions = 0;
      cond_branches;
      halted = true;
      checksum = 0;
      result = 0;
      final_pc = -1;
    }
  in
  let extra_warnings =
    if !alien = 0 then []
    else
      [
        Error.v ~stage:"ingest"
          "%d trace event(s) fall outside the image (size %d)" !alien n;
      ]
  in
  finish_profile ~config ~image ~fuel:(Config.fuel config) ~outcome ~detector
    ~executed ~takens ~timeline:tl ~extra_warnings

(* The demotion ladder.  Whenever a stage fails — a region that cannot
   be identified or built, a package that fails structural validation
   or a resource budget, an emission error, a verifier rejection — the
   pipeline gives up the smallest thing that makes the failure go
   away: first the offending package, then the whole region, and as a
   last resort every package, leaving the image unmodified.  A
   demoted result is always still a sound result. *)

let make_demoter metrics =
  let demotions = ref [] in
  let demote rung error =
    demotions := { rung; error } :: !demotions;
    Counter.bump metrics ("demote." ^ rung_name rung) 1;
    Vp_metrics.Flight.note metrics ~kind:"demote" ~label:(rung_name rung);
    if rung = Fallback_image then
      Vp_metrics.Flight.dump metrics ~reason:"fallback-image"
        ~label:"driver" ();
    Log.warn (fun m -> m "%a" pp_demotion { rung; error })
  in
  (demotions, demote)

(* Any stage failure becomes a payload; typed pipeline errors keep
   their context, anything else is wrapped. *)
let wrap_stage stage f =
  try Ok (f ()) with
  | Error.Error e -> Result.Error e
  | exn -> Result.Error (Error.v ~stage "%s" (Printexc.to_string exn))

(* The packaging back half — screening, linking, emission,
   verification, and the demotion ladder over all of them — factored
   out of [rewrite_of_profile] so the session loop can re-emit its
   package cache against the pristine original image each epoch.
   [demote] records rung decisions into the caller's ledger;
   [on_screened] fires between screening and emission (the one-shot
   driver injects its per-region bookkeeping there). *)
let assemble_parts ~config ~demote ~on_screened ~original packages =
  let metrics = Config.metrics config in
  let plan = Config.fault config in
  (* Package screening: structural validity plus the plan's resource
     budgets.  Per-package overruns drop that package; the expansion
     budget drops packages largest-first until the total fits. *)
  let screen pkgs =
    let pkgs =
      List.filter
        (fun (p : Pkg.t) ->
          let drop e =
            demote Drop_package e;
            false
          in
          match Pkg.validate p with
          | Ok () -> (
            match plan with
            | Some
                {
                  Vp_fault.Plan.resource =
                    { max_package_instrs = Some budget; _ };
                  _;
                }
              when Pkg.size p > budget ->
              drop
                (Error.v ~stage:"build" ~label:p.Pkg.id
                   "package size %d exceeds budget %d" (Pkg.size p) budget)
            | _ -> true)
          | Result.Error msg ->
            drop
              (Error.v ~stage:"build" ~label:p.Pkg.id "invalid package: %s"
                 msg))
        pkgs
    in
    match plan with
    | Some
        { Vp_fault.Plan.resource = { max_expansion_pct = Some pct; _ }; _ } ->
      let budget =
        int_of_float
          (pct /. 100.
          *. float_of_int (Vp_prog.Image.static_instruction_count original))
      in
      let total ps = List.fold_left (fun a p -> a + Pkg.size p) 0 ps in
      let rec trim ps =
        if total ps <= budget then ps
        else
          match ps with
          | [] -> []
          | _ ->
            let largest =
              List.fold_left
                (fun acc p -> if Pkg.size p > Pkg.size acc then p else acc)
                (List.hd ps) ps
            in
            demote Drop_package
              (Error.v ~stage:"build" ~label:largest.Pkg.id
                 "expansion budget %.1f%% exhausted (total %d > %d)" pct
                 (total ps) budget);
            trim (List.filter (fun p -> p != largest) ps)
      in
      (* A budget with no room at all is not a sequence of package
         drops, it is the bottom rung: keep the image unmodified. *)
      if budget <= 0 && pkgs <> [] then begin
        demote Fallback_image
          (Error.v ~stage:"build"
             "expansion budget %.1f%% leaves no room for packages" pct);
        []
      end
      else trim pkgs
    | _ -> pkgs
  in
  let screened = screen packages in
  on_screened screened;
  let link_and_emit pkgs =
    let groups, link_stats =
      Span.record metrics "link"
        ~work:(fun (_, s) -> s.Linking.orderings_ranked)
      @@ fun () ->
      Linking.group_packages_with_stats ~linking:(Config.linking config) pkgs
    in
    Counter.bump metrics "link.groups" link_stats.Linking.groups;
    Counter.bump metrics "link.linked_groups" link_stats.Linking.linked_groups;
    Counter.bump metrics "link.orderings_ranked"
      link_stats.Linking.orderings_ranked;
    Counter.bump metrics "link.greedy_fallbacks"
      link_stats.Linking.greedy_fallbacks;
    Counter.bump metrics "link.links" link_stats.Linking.links_resolved;
    (* One transformer per emission: its packages share schedules, and
       the sharing ends with the emission. *)
    let transform = Vp_opt.Opt.transformer ~config:(Config.opt config) () in
    Emit.of_groups ~transform original groups
  in
  let verify emitted = Verify.check ~original emitted in
  let fallback e =
    demote Fallback_image e;
    let emitted = link_and_emit [] in
    (emitted, verify emitted)
  in
  (* A verifier-attributed drop names the package's first violation,
     so the ladder's record says what was unsound, not only that. *)
  let rejection ?label (vs : Verify.violation list) =
    let first = List.hd vs in
    Error.v ~stage:"verify" ?label ?pc:first.Verify.addr "%d violation(s): %s"
      (List.length vs) first.Verify.what
  in
  let rec emit_verified pkgs budget =
    (* An emission error one package is to blame for carries it. *)
    let attempt () =
      try Ok (link_and_emit pkgs) with Emit.Rejected (p, e) -> Result.Error (p, e)
    in
    match wrap_stage "emit" attempt with
    | Ok (Result.Error (p, e)) when budget > 0 ->
      demote Drop_package e;
      emit_verified (List.filter (fun q -> q != p) pkgs) (budget - 1)
    | Ok (Result.Error (_, e)) | Result.Error e -> fallback e
    | Ok (Ok emitted) ->
      let report =
        Span.record metrics "verify"
          ~work:(fun (r : Verify.report) -> r.Verify.checked_instructions)
        @@ fun () -> verify emitted
      in
      if Verify.ok report then (emitted, report)
      else begin
        Counter.bump metrics "verify.rejections" 1;
        Vp_metrics.Flight.note metrics ~kind:"verify" ~label:"rejection";
        Vp_metrics.Flight.dump metrics ~reason:"verifier-rejection"
          ~label:"driver" ();
        let violations = report.Verify.violations in
        let of_pkg (p : Pkg.t) =
          List.filter (fun v -> v.Verify.pkg = Some p.Pkg.id) violations
        in
        let offending = List.filter (fun p -> of_pkg p <> []) pkgs in
        if offending = [] || budget <= 0 then
          fallback
            (rejection ?label:(List.hd violations).Verify.label violations)
        else begin
          List.iter
            (fun (p : Pkg.t) ->
              demote Drop_package (rejection ~label:p.Pkg.id (of_pkg p)))
            offending;
          emit_verified
            (List.filter (fun p -> not (List.memq p offending)) pkgs)
            (budget - 1)
        end
      end
  in
  let emitted, verification =
    Span.record metrics "emit"
      ~work:(fun ((e : Emit.result), _) -> e.Emit.package_instructions)
    @@ fun () -> emit_verified screened (List.length screened + 1)
  in
  (screened, emitted, verification)

type assembly = {
  survivors : Pkg.t list;
  assembled : Emit.result;
  checks : Verify.report;
  drops : demotion list;
}

let assemble ?(config = Config.default) ~original packages =
  let demotions, demote = make_demoter (Config.metrics config) in
  let survivors, assembled, checks =
    assemble_parts ~config ~demote ~on_screened:ignore ~original packages
  in
  { survivors; assembled; checks; drops = List.rev !demotions }

let rewrite_of_profile ?(config = Config.default) source =
  let metrics = Config.metrics config in
  let demotions, demote = make_demoter metrics in
  (* A phase whose region cannot be identified or built is dropped
     whole. *)
  let or_drop_region stage ~dropped f =
    match wrap_stage stage f with
    | Ok v -> v
    | Result.Error e ->
      demote Drop_region e;
      dropped
  in
  let regions =
    Span.record metrics "regions" ~work:(List.length) @@ fun () ->
    List.filter_map
      (fun (phase : Phase_log.phase) ->
        or_drop_region "identify" ~dropped:None (fun () ->
            let region, stats =
              Identify.identify_with_stats ~config:(Config.identify config)
                source.image phase.Phase_log.representative
            in
            Some { phase; region; stats }))
      (Phase_log.phases source.log)
  in
  List.iter
    (fun info ->
      Counter.bump metrics "identify.hot_blocks" info.stats.Identify.hot_blocks;
      Counter.bump metrics "identify.inference_rounds"
        info.stats.Identify.inference_rounds;
      Counter.bump metrics "identify.grown_blocks"
        info.stats.Identify.grown_blocks)
    regions;
  let packages =
    Span.record metrics "packages" ~work:(List.length) @@ fun () ->
    List.concat_map
      (fun info ->
        or_drop_region "build" ~dropped:[] (fun () ->
            Build.build info.region
              ~prefix:(Printf.sprintf "pkg$p%d" info.phase.Phase_log.id)))
      regions
  in
  List.iter
    (fun (p : Pkg.t) ->
      Counter.bump metrics "build.blocks" (Array.length p.Pkg.order);
      Counter.bump metrics "build.exit_blocks"
        (Array.fold_left
           (fun n (b : Pkg.block) -> if b.Pkg.is_exit then n + 1 else n)
           0 p.Pkg.blocks))
    packages;
  let on_screened screened =
    (* A region whose every package was screened away is itself gone —
       unless screening already fell back wholesale, which subsumes the
       per-region accounting. *)
    if not (List.exists (fun d -> d.rung = Fallback_image) !demotions) then
      List.iter
        (fun info ->
          let rid = info.phase.Phase_log.id in
          let had =
            List.exists (fun (p : Pkg.t) -> p.Pkg.region_id = rid) packages
          and kept =
            List.exists (fun (p : Pkg.t) -> p.Pkg.region_id = rid) screened
          in
          if had && not kept then
            demote Drop_region
              (Error.v ~stage:"build" "region %d lost all its packages" rid))
        regions
  in
  let screened, emitted, verification =
    assemble_parts ~config ~demote ~on_screened ~original:source.image packages
  in
  {
    source;
    regions;
    packages = screened;
    emitted;
    demotions = List.rev !demotions;
    verification;
  }

let with_snapshots ?similarity p snapshots =
  { p with snapshots; log = Phase_log.build ?similarity snapshots }

let rewrite ?config image =
  rewrite_of_profile ?config (profile ?config image)

let rewritten_image r = r.emitted.Emit.image
