(* vpack: command-line front end for the Vacuum Packing pipeline.

   Every subcommand is a row of one declarative Spec table; flags
   shared across subcommands ([--backend], [--jobs], [--seeds], the
   workload selectors) are defined exactly once below, so they parse
   and document identically everywhere, and --help/usage text is
   generated from the table.

   Exit codes: 0 success, 2 command-line error (unknown subcommand,
   unknown/ambiguous workload, bad flags), 3 pipeline error, 4
   verifier rejection (verify; serve on a fallback or oracle failure),
   5 chaos-matrix failure, 6 fuzz-campaign failure. *)

module Registry = Vp_workloads.Registry
module Program = Vp_prog.Program
module Emulator = Vp_exec.Emulator
module Session = Vacuum.Session
module Config = Vacuum.Config

(* Accept the exact Table 1 bench name or any unambiguous suffix:
   "134.perl" and "perl" both name 134.perl. *)
let resolve_bench bench =
  if List.mem bench Registry.benches then Some bench
  else
    let matches name =
      match String.index_opt name '.' with
      | Some i -> String.sub name (i + 1) (String.length name - i - 1) = bench
      | None -> false
    in
    match List.filter matches Registry.benches with
    | [ name ] -> Some name
    | [] -> None
    | _ :: _ :: _ as multi ->
      (* A usage error, not a pipeline failure: raise on the typed
         channel with the [cli] stage so the top level can print usage
         and exit 2, matching the parser's own errors. *)
      Vacuum.Error.failf ~stage:"cli" "ambiguous workload %s (matches %s)"
        bench
        (String.concat ", " multi)

let find_workload spec =
  let bench, input =
    match String.index_opt spec '/' with
    | Some i ->
      ( String.sub spec 0 i,
        String.sub spec (i + 1) (String.length spec - i - 1) )
    | None -> (spec, "A")
  in
  match
    Option.bind (resolve_bench bench) (fun bench -> Registry.find ~bench ~input)
  with
  | Some w -> w
  | None ->
    Vacuum.Error.failf ~stage:"cli" "unknown workload %s (try `vpack list`)"
      spec

(* ---- the shared flag definitions ---- *)

let workload_flag =
  Spec.flag ~kind:Spec.Value ~docv:"NAME" ~required:true
    ~doc:"Workload as BENCH or BENCH/INPUT (see `vpack list`)."
    [ "w"; "workload" ]

let workloads_flag =
  Spec.flag ~kind:Spec.Value ~docv:"NAME" ~required:true ~repeatable:true
    ~doc:"Workload as BENCH or BENCH/INPUT (see `vpack list`)."
    [ "w"; "workload" ]

let workload_pos =
  {
    Spec.pos_docv = "WORKLOAD";
    pos_doc = "Workload as BENCH or BENCH/INPUT.";
    pos_required = true;
  }

let default_backend = Config.backend Config.default

let check_backend name =
  match Emulator.backend_of_string name with
  | Some _ -> None
  | None -> Some (Printf.sprintf "expected reference or compiled, got %S" name)

let backend_flag =
  Spec.flag ~kind:Spec.Value ~docv:"BACKEND"
    ~default:(Emulator.backend_name default_backend)
    ~check:check_backend
    ~doc:
      "Functional emulator backend: reference or compiled.  Both backends \
       produce bit-identical results; the choice only affects simulation \
       speed."
    [ "backend" ]

let jobs_flag =
  Spec.flag ~kind:Spec.Value ~docv:"N" ~default:"0" ~check:Spec.check_int
    ~doc:
      "Evaluate up to N workloads in parallel on separate domains (0 = the \
       machine's recommended domain count)."
    [ "j"; "jobs" ]

let seeds_flag =
  Spec.flag ~kind:Spec.Value ~docv:"N" ~default:"5" ~check:Spec.check_int
    ~doc:"Seeds per fault plan." [ "seeds" ]

let no_inference_flag =
  Spec.flag ~kind:Spec.Bool ~doc:"Disable hot-block inference."
    [ "no-inference" ]

let no_linking_flag =
  Spec.flag ~kind:Spec.Bool ~doc:"Disable package linking." [ "no-linking" ]

let timing_flag =
  Spec.flag ~kind:Spec.Bool ~doc:"Run the cycle-level timing model."
    [ "timing" ]

let trace_flag doc = Spec.flag ~kind:Spec.Value ~docv:"FILE" ~doc [ "trace" ]

let span_trace_flag =
  trace_flag
    "Record pipeline spans and write them as a Chrome trace-event / \
     Perfetto JSON timeline (schema vp-perfetto-trace/1) to FILE."

let ingest_trace_flag =
  Spec.flag ~kind:Spec.Value ~docv:"FILE"
    ~doc:
      "Ingest a vp-retire-trace/1 retired-branch trace instead of running \
       the emulator: the recorded stream drives the detector, phase \
       filtering and packaging exactly as a live run's would."
    [ "ingest-trace" ]

let record_trace_flag =
  Spec.flag ~kind:Spec.Value ~docv:"FILE"
    ~doc:
      "Record the run's retired-branch stream to FILE (schema \
       vp-retire-trace/1), for later --ingest-trace or trace-check."
    [ "record-trace" ]

(* Profile through the emulator, or — under --ingest-trace — from the
   recorded stream, the emulator-free path.  Trace problems are
   pipeline errors (exit 3), not usage errors: the command line was
   fine, the file was not. *)
let profile_or_ingest m ~config img =
  match Spec.value m "ingest-trace" with
  | None -> Vacuum.Driver.profile ~config img
  | Some path -> (
    match Vp_gen.Trace.read_file ~path with
    | Error e -> Vacuum.Error.failf ~stage:"trace" "%s: %s" path e
    | Ok t ->
      let p =
        Vacuum.Driver.profile_of_events ~config
          ~instructions:t.Vp_gen.Trace.instructions img
          (Vp_gen.Trace.events t)
      in
      List.iter
        (fun w -> Format.eprintf "warning: %a@." Vacuum.Error.pp w)
        p.Vacuum.Driver.warnings;
      p)

let resolve_jobs m =
  let n = Spec.int_value m "jobs" in
  if n <= 0 then Vp_util.Pool.default_jobs () else n

let resolve_backend m =
  match Spec.value m "backend" with
  | None -> default_backend
  | Some name -> Option.get (Emulator.backend_of_string name)

let config_of m =
  Config.experiment
    ~inference:(not (Spec.flag_set m "no-inference"))
    ~linking:(not (Spec.flag_set m "no-linking"))

let workload_of m = find_workload (Option.get (Spec.value m "workload"))
(* The commands with a WORKLOAD positional read exactly one: a second
   is a usage error (exit 2), raised before the command prints
   anything. *)
let workload_of_pos m =
  match Spec.positional m with
  | [ w ] -> find_workload w
  | _ :: extra :: _ ->
    Vacuum.Error.failf ~stage:"cli" "one workload expected, got extra argument %s" extra
  | [] -> Vacuum.Error.failf ~stage:"cli" "missing WORKLOAD argument"

(* --- list --- *)

let list_cmd =
  Spec.cmd ~name:"list" ~doc:"List the Table 1 workload inventory." ~flags:[]
    (fun _ ->
      let t =
        Vp_util.Tabular.create
          ~header:
            [
              ("workload", Vp_util.Tabular.Left);
              ("static instrs", Vp_util.Tabular.Right);
              ("description", Vp_util.Tabular.Left);
            ]
      in
      List.iter
        (fun w ->
          let p = w.Registry.program () in
          Vp_util.Tabular.add_row t
            [
              Registry.name w;
              string_of_int (Program.static_size p);
              w.Registry.description;
            ])
        Registry.all;
      Vp_util.Tabular.print t)

(* --- run --- *)

let run_cmd =
  Spec.cmd ~name:"run" ~doc:"Execute a workload on the functional emulator."
    ~flags:[ workload_flag; backend_flag; record_trace_flag ] (fun m ->
      let backend = resolve_backend m in
      let w = workload_of m in
      let img = Program.layout (w.Registry.program ()) in
      let o =
        match Spec.value m "record-trace" with
        | None -> Emulator.run_backend ~backend img
        | Some path ->
          let t, o = Vp_gen.Trace.record ~backend img in
          Vp_gen.Trace.write_file ~path t;
          Printf.printf "trace: %d events -> %s\n" (Vp_gen.Trace.length t) path;
          o
      in
      Printf.printf "%s: %d instructions, %d conditional branches, result %d%s\n"
        (Registry.name w) o.Emulator.instructions o.Emulator.cond_branches
        o.Emulator.result
        (if o.Emulator.halted then "" else " (fuel exhausted)"))

(* --- phases --- *)

let phases_cmd =
  let ipc_flag =
    Spec.flag ~kind:Spec.Bool
      ~doc:"Also report per-phase IPC on the EPIC model." [ "ipc" ]
  in
  Spec.cmd ~name:"phases"
    ~doc:"Profile a workload and show its detected phases."
    ~flags:[ workload_flag; ipc_flag; backend_flag; ingest_trace_flag ]
    (fun m ->
      let backend = resolve_backend m in
      let w = workload_of m in
      let img = Program.layout (w.Registry.program ()) in
      let profile =
        profile_or_ingest m
          ~config:(Config.with_backend backend Config.default)
          img
      in
      Printf.printf "%s: %d raw detections, %d recordings\n" (Registry.name w)
        profile.Vacuum.Driver.detections
        (List.length profile.Vacuum.Driver.snapshots);
      Format.printf "%a@." Vp_phase.Phase_log.pp profile.Vacuum.Driver.log;
      let timeline = Vp_phase.Phase_log.timeline profile.Vacuum.Driver.log in
      List.iter
        (fun (s, e, p) -> Printf.printf "  [%9d, %9d) phase %d\n" s e p)
        timeline;
      if Spec.flag_set m "ipc" then begin
        Printf.printf "\nper-phase timing (phase -1 = detector warm-up):\n";
        List.iter
          (fun (ps : Vp_cpu.Pipeline.phase_stats) ->
            Printf.printf
              "  phase %2d: %9d branches, %10d instrs, %10d cycles, IPC %.3f\n"
              ps.Vp_cpu.Pipeline.phase ps.Vp_cpu.Pipeline.branches
              ps.Vp_cpu.Pipeline.seg_instructions ps.Vp_cpu.Pipeline.seg_cycles
              ps.Vp_cpu.Pipeline.seg_ipc)
          (Vp_cpu.Pipeline.simulate_phases ~timeline img)
      end)

(* --- extract --- *)

let extract_cmd =
  Spec.cmd ~name:"extract"
    ~doc:"Run region identification and package extraction."
    ~flags:
      [
        workload_flag; no_inference_flag; no_linking_flag; backend_flag;
        ingest_trace_flag;
      ]
    (fun m ->
      let backend = resolve_backend m in
      let w = workload_of m in
      let img = Program.layout (w.Registry.program ()) in
      let config = Config.with_backend backend (config_of m) in
      let r =
        Vacuum.Driver.rewrite_of_profile ~config
          (profile_or_ingest m ~config img)
      in
      List.iter
        (fun (info : Vacuum.Driver.region_info) ->
          Printf.printf
            "phase %d: %d functions, %d hot blocks, %d instructions selected\n"
            info.Vacuum.Driver.phase.Vp_phase.Phase_log.id
            info.Vacuum.Driver.stats.Vp_region.Identify.functions
            info.Vacuum.Driver.stats.Vp_region.Identify.hot_blocks
            info.Vacuum.Driver.stats.Vp_region.Identify.selected_instructions)
        r.Vacuum.Driver.regions;
      List.iter
        (fun p ->
          Printf.printf
            "package %s: root %s, %d blocks, %d entries, %d branch sites\n"
            p.Vp_package.Pkg.id p.Vp_package.Pkg.root
            (Array.length p.Vp_package.Pkg.blocks)
            (List.length p.Vp_package.Pkg.entries)
            (Vp_package.Pkg.branch_count p))
        r.Vacuum.Driver.packages;
      Printf.printf "emitted %d package instructions, %d launch points\n"
        r.Vacuum.Driver.emitted.Vp_package.Emit.package_instructions
        (List.length r.Vacuum.Driver.emitted.Vp_package.Emit.launch_patches))

(* --- aggregate --- *)

let aggregate_cmd =
  let runs_flag =
    Spec.flag ~kind:Spec.Value ~docv:"N" ~default:"256" ~check:Spec.check_int
      ~doc:"Emulate N user-machine runs (ignored with --ingest)." [ "runs" ]
  in
  let shards_flag =
    Spec.flag ~kind:Spec.Value ~docv:"N" ~default:"8" ~check:Spec.check_int
      ~doc:"Partition the fleet over N aggregation shards." [ "shards" ]
  in
  let seed_flag =
    Spec.flag ~kind:Spec.Value ~docv:"S" ~default:"42" ~check:Spec.check_int
      ~doc:"Root seed of the per-machine noise." [ "seed" ]
  in
  let wire_flag =
    Spec.flag ~kind:Spec.Value ~docv:"FILE"
      ~doc:"Also write the fleet's vp-profile-wire/1 stream to FILE."
      [ "wire" ]
  in
  let ingest_flag =
    Spec.flag ~kind:Spec.Value ~docv:"FILE" ~repeatable:true
      ~doc:
        "Ingest runs from this vp-profile-wire/1 file instead of emulating \
         them."
      [ "ingest" ]
  in
  Spec.cmd ~name:"aggregate"
    ~doc:
      "Aggregate a fleet of per-machine profile streams (emulated, or \
       ingested from vp-profile-wire/1 files) into one consensus profile and \
       feed it through the packaging pipeline.  Stdout is byte-identical for \
       every --shards/--jobs value."
    ~positional:workload_pos
    ~exits:
      [
        (0, "success");
        (2, "command-line error");
        (3, "pipeline or wire-format error");
      ]
    ~flags:
      [
        runs_flag; shards_flag; seed_flag; jobs_flag; wire_flag; ingest_flag;
        backend_flag;
      ]
    (fun m ->
      let backend = resolve_backend m in
      let w = workload_of_pos m in
      let img = Program.layout (w.Registry.program ()) in
      (* An enabled registry for the [aggregate] span, whose wall time
         is the stderr throughput line's. *)
      let metrics = Vp_metrics.create () in
      let config =
        Config.default
        |> Config.with_backend backend
        |> Config.with_metrics metrics
      in
      let base = Vacuum.Driver.profile ~config img in
      let ingest = Spec.values m "ingest" in
      let wire_runs =
        if ingest <> [] then
          List.concat_map
            (fun path ->
              match Vp_aggregate.Wire.read_file ~path with
              | Ok rs -> rs
              | Error e -> Vacuum.Error.failf ~stage:"wire" "%s: %s" path e)
            ingest
        else
          Vacuum.Fleet.emulate_runs ~config
            ~seed:(Spec.int_value m "seed")
            ~runs:(Spec.int_value m "runs")
            base
      in
      (match Spec.value m "wire" with
      | None -> ()
      | Some path ->
        Vp_aggregate.Wire.write_file ~path wire_runs;
        Printf.eprintf "wire: %d runs -> %s\n" (List.length wire_runs) path);
      let fleet =
        Vacuum.Fleet.aggregate ~config
          ~shards:(Spec.int_value m "shards")
          ~jobs:(resolve_jobs m) ~base wire_runs
      in
      let dt =
        match Vp_metrics.Histogram.get metrics "span.aggregate.wall_us" with
        | Some h -> float_of_int (Vp_metrics.Hist.sum h) /. 1e6
        | None -> 0.0
      in
      let stats = fleet.Vacuum.Fleet.stats in
      (* Everything on stdout is a pure function of the ingested fleet:
         CI asserts shard/job invariance by diffing stdout across
         --shards and --jobs values.  Sharding geometry and throughput
         go to stderr. *)
      Printf.printf "%s: %d runs, %d snapshots (%d classified, %d dropped)\n"
        (Registry.name w) stats.Vp_aggregate.Shard.runs
        stats.Vp_aggregate.Shard.snapshots stats.Vp_aggregate.Shard.classified
        stats.Vp_aggregate.Shard.dropped;
      List.iter
        (fun (id, (p : Vp_aggregate.Profile.t)) ->
          Printf.printf
            "  class %d: %d runs, %d snapshots, %d branches, est weight %d\n"
            id p.Vp_aggregate.Profile.runs p.Vp_aggregate.Profile.snapshots
            (Vp_aggregate.Profile.branch_count p)
            (Vp_aggregate.Profile.total_estimated p))
        fleet.Vacuum.Fleet.classes;
      Printf.printf "aggregate digest %016x\n" fleet.Vacuum.Fleet.digest;
      let r =
        Vacuum.Driver.rewrite_of_profile ~config
          (Vacuum.Fleet.profile_of_fleet ~config ~base fleet)
      in
      Printf.printf "consensus rewrite: %d packages, %d package instructions\n"
        (List.length r.Vacuum.Driver.packages)
        r.Vacuum.Driver.emitted.Vp_package.Emit.package_instructions;
      Printf.eprintf
        "aggregated over %d shards, %d jobs: %.0f snapshots/sec (%.3f s)\n"
        stats.Vp_aggregate.Shard.shards stats.Vp_aggregate.Shard.jobs
        (float_of_int stats.Vp_aggregate.Shard.snapshots /. Float.max dt 1e-9)
        dt)

(* --- report --- *)

let report_cmd =
  Spec.cmd ~name:"report"
    ~doc:
      "Full evaluation of one or more workloads (coverage, expansion, \
       optional timing), in parallel under --jobs."
    ~flags:
      [
        workloads_flag; no_inference_flag; no_linking_flag; timing_flag;
        jobs_flag; span_trace_flag; backend_flag;
      ]
    (fun m ->
      let backend = resolve_backend m in
      let ws = List.map find_workload (Spec.values m "workload") in
      let trace = Spec.value m "trace" in
      let metrics =
        match trace with
        | Some _ -> Vp_metrics.create ()
        | None -> Vp_metrics.disabled
      in
      let config =
        Config.with_backend backend (Config.with_metrics metrics (config_of m))
      in
      let timing = Spec.flag_set m "timing" in
      (* Each evaluation is an isolated profile/rewrite/simulate chain;
         run them on a domain pool and print in request order. *)
      let reports =
        Vp_util.Pool.map ~jobs:(resolve_jobs m)
          (fun w ->
            let img = Program.layout (w.Registry.program ()) in
            Vacuum.Report.evaluate ~config ~timing ~name:(Registry.name w) img)
          ws
      in
      List.iter
        (fun report -> Format.printf "%a@." Vacuum.Report.pp report)
        reports;
      match trace with
      | None -> ()
      | Some path ->
        Printf.printf "trace: %d spans -> %s\n"
          (Vp_metrics.Perfetto.write_spans metrics ~path)
          path)

(* --- stats --- *)

let stats_cmd =
  Spec.cmd ~name:"stats"
    ~doc:
      "Evaluate one workload with the metrics registry enabled and print the \
       effective configuration, the per-stage span table and the registry's \
       OpenMetrics snapshot (volatile section included)."
    ~flags:
      [
        workload_flag; no_inference_flag; no_linking_flag; timing_flag;
        span_trace_flag; backend_flag;
      ]
    (fun m ->
      let backend = resolve_backend m in
      let w = workload_of m in
      let metrics = Vp_metrics.create () in
      let config =
        Config.with_backend backend (Config.with_metrics metrics (config_of m))
      in
      let img = Program.layout (w.Registry.program ()) in
      let report =
        Vacuum.Report.evaluate ~config
          ~timing:(Spec.flag_set m "timing")
          ~name:(Registry.name w) img
      in
      Format.printf "%a@." Vacuum.Report.pp report;
      Printf.printf "\neffective configuration (%s):\n" (Registry.name w);
      Format.printf "%a@." Config.pp config;
      Printf.printf "\npipeline spans (%s):\n" (Registry.name w);
      Vp_util.Tabular.print (Vp_metrics.Span.table metrics);
      (match Vp_metrics.Span.dropped metrics with
      | 0 -> ()
      | n -> Printf.printf "(%d spans dropped to ring wrap-around)\n" n);
      Printf.printf "\nmetrics snapshot:\n";
      print_string (Vp_metrics.Snapshot.render ~volatile:true metrics);
      match Spec.value m "trace" with
      | None -> ()
      | Some path ->
        ignore (Vp_metrics.Perfetto.write_spans metrics ~path : int))

(* --- timeline --- *)

let timeline_cmd =
  let interval_flag =
    Spec.flag ~kind:Spec.Value ~docv:"N"
      ~default:(string_of_int Vp_telemetry.default_interval)
      ~check:Spec.check_int ~doc:"Sampling interval in retired instructions."
      [ "interval" ]
  in
  let width_flag =
    Spec.flag ~kind:Spec.Value ~docv:"COLS" ~default:"72"
      ~check:Spec.check_int ~doc:"Render width." [ "width" ]
  in
  let tl_trace_flag =
    trace_flag
      "Also write the profile, rewritten-run and timing timelines as \
       Perfetto counter tracks (schema vp-perfetto-trace/1) to FILE."
  in
  Spec.cmd ~name:"timeline"
    ~doc:
      "Render a workload's interval timeline: detector state and phase \
       extents of the profiling run, package residency lanes of the \
       rewritten run, and (with --timing) timing-model series."
    ~positional:workload_pos
    ~flags:
      [
        interval_flag; width_flag; timing_flag; no_inference_flag;
        no_linking_flag; tl_trace_flag; backend_flag;
      ]
    (fun m ->
      let backend = resolve_backend m in
      let w = workload_of_pos m in
      let interval = Spec.int_value m "interval" in
      let width = Spec.int_value m "width" in
      let img = Program.layout (w.Registry.program ()) in
      let config =
        Config.with_backend backend
          (Config.with_metrics (Vp_metrics.create ~interval ()) (config_of m))
      in
      let profile = Vacuum.Driver.profile ~config img in
      let tl = profile.Vacuum.Driver.timeline in
      let series name =
        Option.value ~default:[||] (Vp_telemetry.Series.find tl name)
      in
      Printf.printf "%s: %d instructions, %d intervals of %d\n"
        (Registry.name w) profile.Vacuum.Driver.outcome.Emulator.instructions
        (Vp_telemetry.intervals tl) interval;
      let bar name values =
        Printf.printf "%-14s|%s|\n" name
          (Vp_telemetry.Render.sparkline ~width values)
      in
      Printf.printf "\nprofiling run (detector state per interval):\n";
      bar "hdc" (series "profile.hdc");
      bar "bbb occupancy" (series "profile.bbb_occupancy");
      bar "branches" (series "profile.branches");
      List.iter
        (fun kind ->
          Printf.printf "%-14s%d events\n" kind
            (Vp_telemetry.Event.count tl ~kind))
        [ "detect"; "record"; "rearm" ];
      (* Phase extents: map the phase log's branch-index spans onto the
         interval axis through the cumulative branch series. *)
      let branches = series "profile.branches" in
      let cum = Array.make (Array.length branches) 0 in
      let acc = ref 0 in
      Array.iteri
        (fun i b ->
          acc := !acc + b;
          cum.(i) <- !acc)
        branches;
      let extents = Vp_phase.Phase_log.timeline profile.Vacuum.Driver.log in
      Printf.printf "\nphase extents:\n";
      List.iter
        (fun (id, row) -> Printf.printf "phase %-8d|%s|\n" id row)
        (Vp_telemetry.Render.extent_rows ~width ~cum extents);
      (* Rewrite, then attribute the rewritten run's retirement stream
         to original code vs. each emitted package. *)
      let r = Vacuum.Driver.rewrite_of_profile ~config profile in
      let cov = Vacuum.Coverage.measure ~config r in
      let res = cov.Vacuum.Coverage.residency in
      let total =
        Option.value ~default:[||]
          (Vp_telemetry.Series.find res "run.instructions")
      in
      Printf.printf
        "\nrewritten run residency (coverage %.1f%%, %d launches, %d side \
         exits):\n"
        cov.Vacuum.Coverage.coverage_pct
        (Vp_telemetry.Event.count res ~kind:"launch")
        (Vp_telemetry.Event.count res ~kind:"side_exit");
      List.iter
        (fun name ->
          match Vp_telemetry.Series.find res name with
          | Some part when name <> "run.instructions" ->
            let label =
              String.sub name 4 (String.length name - 4 - 13)
              (* strip "run." and ".instructions" *)
            in
            let share =
              Vp_util.Stats.pct
                (Array.fold_left ( + ) 0 part)
                (Array.fold_left ( + ) 0 total)
            in
            Printf.printf "%-14s|%s| %5.1f%%\n"
              (if String.length label > 14 then String.sub label 0 14
               else label)
              (Vp_telemetry.Render.lane ~width ~total part)
              share
          | _ -> ())
        (Vp_telemetry.Series.names res);
      let timelines = ref [ tl; res ] in
      if Spec.flag_set m "timing" then begin
        let tt = Vp_telemetry.create (Config.metrics config) in
        let stats =
          Vp_cpu.Pipeline.simulate ~config:(Config.cpu config)
            ~fuel:(Config.fuel config)
            ~mem_words:(Config.mem_words config) ~telemetry:tt
            (Vacuum.Driver.rewritten_image r)
        in
        timelines := !timelines @ [ tt ];
        let tseries name =
          Option.value ~default:[||] (Vp_telemetry.Series.find tt name)
        in
        Printf.printf "\ntiming model on the rewritten binary (IPC %.3f):\n"
          stats.Vp_cpu.Pipeline.ipc;
        Printf.printf "%-14s|%s|\n" "cycles"
          (Vp_telemetry.Render.sparkline ~width (tseries "timing.cycles"));
        Printf.printf "%-14s|%s|\n" "icache miss"
          (Vp_telemetry.Render.sparkline ~width
             (tseries "timing.icache_misses"));
        Printf.printf "%-14s|%s|\n" "dcache miss"
          (Vp_telemetry.Render.sparkline ~width
             (tseries "timing.dcache_misses"));
        Printf.printf "%-14s|%s|\n" "mispredicts"
          (Vp_telemetry.Render.sparkline ~width (tseries "timing.mispredicts"));
        Printf.printf "%-14s|%s|\n" "fetch stalls"
          (Vp_telemetry.Render.sparkline ~width (tseries "timing.fetch_stalls"))
      end;
      match Spec.value m "trace" with
      | None -> ()
      | Some path ->
        Vp_telemetry.write_perfetto ~path !timelines;
        Printf.printf "\ntrace: %d timelines -> %s\n"
          (List.length !timelines)
          path)

(* --- serve --- *)

let sanitize name =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' -> c
      | _ -> '-')
    name

let serve_cmd =
  let epochs_flag =
    Spec.flag ~kind:Spec.Value ~docv:"N"
      ~default:(string_of_int Config.default_session.Config.epochs)
      ~check:Spec.check_int ~doc:"Number of re-optimization epochs to run."
      [ "epochs" ]
  in
  let epoch_fuel_flag =
    Spec.flag ~kind:Spec.Value ~docv:"N" ~default:"0" ~check:Spec.check_int
      ~doc:
        "Instructions per epoch (0 = a clean run's length divided by \
         --epochs)."
      [ "epoch-fuel" ]
  in
  let cache_pct_flag =
    Spec.flag ~kind:Spec.Value ~docv:"PCT"
      ~default:
        (Printf.sprintf "%g" Config.default_session.Config.cache_pct)
      ~check:Spec.check_float
      ~doc:
        "Package-cache budget as a percentage of the original's static size \
         (the Table 3 expansion budget); least-resident entries are evicted \
         beyond it."
      [ "cache-pct" ]
  in
  let drift_flag =
    Spec.flag ~kind:Spec.Value ~docv:"T"
      ~default:
        (Printf.sprintf "%g" Config.default_session.Config.drift_threshold)
      ~check:Spec.check_float
      ~doc:
        "Similarity threshold below which a detected phase counts as drift \
         and is packaged anew."
      [ "drift" ]
  in
  let grace_flag =
    Spec.flag ~kind:Spec.Value ~docv:"N"
      ~default:(string_of_int Config.default_session.Config.patch_grace)
      ~check:Spec.check_int
      ~doc:
        "Extra instructions an epoch may run while seeking a quiescent \
         launch point before the swap is deferred."
      [ "grace" ]
  in
  let no_oracle_flag =
    Spec.flag ~kind:Spec.Bool
      ~doc:
        "Skip the per-epoch differential oracle (verifier-only gating of \
         activations)."
      [ "no-oracle" ]
  in
  let trace_dir_flag =
    Spec.flag ~kind:Spec.Value ~docv:"DIR"
      ~doc:
        "Write one Perfetto trace (schema vp-perfetto-trace/1) per workload \
         to DIR (session-WORKLOAD.json): one epoch-K process per epoch, its \
         series as counter tracks and its events as instants."
      [ "trace-dir" ]
  in
  let interval_flag =
    Spec.flag ~kind:Spec.Value ~docv:"N"
      ~default:(string_of_int Vp_telemetry.default_interval)
      ~check:Spec.check_int
      ~doc:"Timeline sampling interval for --trace-dir, in retired \
            instructions."
      [ "interval" ]
  in
  let metrics_file_flag =
    Spec.flag ~kind:Spec.Value ~docv:"FILE"
      ~doc:
        "Rewrite an OpenMetrics snapshot (schema vp-metrics-snapshot/1) of \
         the stable metric registry to FILE after every epoch — a \
         scrape-able live view, byte-identical for every --jobs value and \
         backend."
      [ "metrics" ]
  in
  let perfetto_flag =
    Spec.flag ~kind:Spec.Value ~docv:"FILE"
      ~doc:
        "Write the span ring as a Chrome trace-event / Perfetto JSON \
         timeline (schema vp-perfetto-trace/1) to FILE: one track per \
         domain, each epoch a session:WORKLOAD span over its pipeline \
         spans."
      [ "perfetto" ]
  in
  let flight_dir_flag =
    Spec.flag ~kind:Spec.Value ~docv:"DIR"
      ~doc:
        "Flight recorder: on a fallback to the original image, a verifier \
         rejection or an oracle failure, dump the metric registry with its \
         recent mark ring, plus its span ring as a Perfetto trace, to DIR."
      [ "flight-dir" ]
  in
  Spec.cmd ~name:"serve"
    ~doc:
      "Run the online re-optimization loop on one or more workloads: \
       profile, package, hot-patch the running image at a verified safe \
       launch point, keep profiling the rewritten image, and re-package on \
       phase drift — the package cache bounded by --cache-pct.  Stdout is \
       byte-identical for every --jobs value and backend."
    ~exits:
      [
        (0, "every epoch verifier-clean and oracle-clean");
        (2, "command-line error");
        (3, "pipeline error");
        (4, "an epoch fell back to the original image or failed the oracle");
      ]
    ~flags:
      [
        workloads_flag; epochs_flag; epoch_fuel_flag; cache_pct_flag;
        drift_flag; grace_flag; no_oracle_flag; trace_dir_flag; interval_flag;
        metrics_file_flag; perfetto_flag; flight_dir_flag; jobs_flag;
        backend_flag;
      ]
    (fun m ->
      let backend = resolve_backend m in
      let ws = List.map find_workload (Spec.values m "workload") in
      let epochs = Spec.int_value m "epochs" in
      let trace_dir = Spec.value m "trace-dir" in
      Option.iter Vp_util.Io.mkdir_p trace_dir;
      let metrics_path = Spec.value m "metrics" in
      let perfetto_path = Spec.value m "perfetto" in
      let flight_dir = Spec.value m "flight-dir" in
      let metrics =
        match (metrics_path, perfetto_path, flight_dir, trace_dir) with
        | None, None, None, None -> Vp_metrics.disabled
        | _ ->
          let interval =
            Option.map (fun _ -> Spec.int_value m "interval") trace_dir
          in
          Vp_metrics.create ?flight_dir ?interval ()
      in
      let config =
        Config.default
        |> Config.with_backend backend
        |> Config.map_session (fun _ ->
               {
                 Config.epochs;
                 epoch_fuel = Spec.int_value m "epoch-fuel";
                 cache_pct = Spec.float_value m "cache-pct";
                 drift_threshold = Spec.float_value m "drift";
                 patch_grace = Spec.int_value m "grace";
                 oracle = not (Spec.flag_set m "no-oracle");
               })
        |> Config.with_metrics metrics
      in
      (* One session per workload, stepped in lock-step epoch rounds on
         the domain pool — equivalent to [Session.run] per workload
         (resume is a pinned contract) but lets --metrics publish a
         fleet-wide snapshot after every epoch.  Reports print in
         request order, so stdout is independent of the schedule. *)
      let jobs = resolve_jobs m in
      let sessions =
        List.map
          (fun w ->
            (w, Session.create ~config (Program.layout (w.Registry.program ()))))
          ws
      in
      for _ = 1 to epochs do
        ignore
          (Vp_util.Pool.map ~jobs
             (fun (w, s) ->
               if not (Session.halted s) then
                 ignore
                   (Vp_metrics.Span.record metrics
                      ("session:" ^ Registry.name w)
                      ~work:(fun (r : Session.epoch_report) ->
                        r.Session.slice.Emulator.instructions
                        + r.Session.grace_used)
                      (fun () -> Session.step s)
                     : Session.epoch_report))
             sessions);
        match metrics_path with
        | Some path -> Vp_metrics.Snapshot.write metrics ~path
        | None -> ()
      done;
      let results = List.map (fun (w, s) -> (w, Session.report s)) sessions in
      let bad = ref false in
      List.iter
        (fun (w, (r : Session.report)) ->
          Printf.printf "%s: config %s\n" (Registry.name w)
            (Config.to_json config);
          Format.printf "%a@." Session.pp_report r;
          List.iter
            (fun (e : Session.epoch_report) ->
              if e.Session.fallback || e.Session.oracle_ok = Some false then
                bad := true)
            r.Session.epochs;
          if r.Session.equivalent = Some false then bad := true;
          match trace_dir with
          | None -> ()
          | Some dir ->
            let path =
              Filename.concat dir
                (Printf.sprintf "session-%s.json" (sanitize (Registry.name w)))
            in
            Vp_telemetry.write_perfetto ~path
              (List.map
                 (fun (e : Session.epoch_report) -> e.Session.timeline)
                 r.Session.epochs);
            Printf.printf "trace: %d epochs -> %s\n"
              (List.length r.Session.epochs)
              path)
        results;
      (* Export reports go to stderr: event counts and paths are stable
         but wall-clock contents are not, and stdout is the artifact CI
         diffs across --jobs. *)
      (match metrics_path with
      | Some path ->
        Vp_metrics.Snapshot.write metrics ~path;
        Printf.eprintf "metrics -> %s\n%!" path
      | None -> ());
      (match perfetto_path with
      | Some path ->
        let n = Vp_metrics.Perfetto.write_spans metrics ~path in
        Printf.eprintf "perfetto: %d spans -> %s\n%!" n path
      | None -> ());
      if !bad then exit 4)

(* --- trace-check --- *)

let trace_check_cmd =
  Spec.cmd ~name:"trace-check"
    ~doc:
      "Validate each trace file against its schema (vp-profile-wire/1, \
       vp-retire-trace/1, vp-metrics-snapshot/1 or vp-perfetto-trace/1, \
       detected from the first line); failures name the schema and the \
       offending line, and an unreadable file does not stop the check."
    ~positional:
      {
        Spec.pos_docv = "FILE...";
        pos_doc = "Trace files to validate, in order.";
        pos_required = true;
      }
    ~exits:
      [
        (0, "every file valid");
        (1, "an invalid file");
        (3, "an unreadable file");
      ]
    ~flags:[]
    (fun m ->
      (* One dispatch table over every schema vpack emits, sniffed from
         the meta line.  Success and failure messages are uniform across
         schemas. *)
      let validators =
        [
          ( "vp-profile-wire/1",
            fun path ->
              Result.map
                (fun (runs, snapshots) ->
                  Printf.sprintf "%d runs, %d snapshots" runs snapshots)
                (Vp_aggregate.Wire.validate_file ~path) );
          ( "vp-retire-trace/1",
            fun path ->
              Result.map
                (Printf.sprintf "%d events")
                (Vp_gen.Trace.validate_file ~path) );
          ( "vp-metrics-snapshot/1",
            fun path ->
              Result.map
                (Printf.sprintf "%d lines")
                (Vp_metrics.Snapshot.validate_file ~path) );
          ( "vp-perfetto-trace/1",
            fun path ->
              Result.map
                (Printf.sprintf "%d events")
                (Vp_metrics.Perfetto.validate_file ~path) );
        ]
      in
      let judge file =
        (* A zero-byte file matches no schema; report it for what it is. *)
        let size, first =
          Vp_util.Io.with_in_file file (fun ic ->
              let n = in_channel_length ic in
              let l = try input_line ic with End_of_file -> "" in
              (n, l))
        in
        if size = 0 then begin
          Printf.eprintf "%s: invalid trace: empty trace (0 bytes)\n%!" file;
          false
        end
        else
          match
            List.find_opt
              (fun (tag, _) -> Option.is_some (Vp_util.Io.find_sub first tag))
              validators
          with
          | None ->
            Printf.eprintf
              "%s: invalid trace: unknown schema (the first line names none \
               of %s)\n%!"
              file
              (String.concat ", " (List.map fst validators));
            false
          | Some (schema, validate) -> (
            match validate file with
            | Ok detail ->
              Printf.printf "%s: valid %s, %s\n%!" file schema detail;
              true
            | Error e ->
              Printf.eprintf "%s: invalid %s: %s\n%!" file schema e;
              false)
      in
      (* Every file gets a verdict, an unreadable one included, before
         the exit code (the worst verdict) is chosen. *)
      let check file =
        try if judge file then 0 else 1
        with Sys_error e ->
          Printf.eprintf "%s: cannot read: %s\n%!" file
            (Vp_util.Io.error_reason ~path:file e);
          3
      in
      let worst = List.fold_left max 0 (List.map check (Spec.positional m)) in
      if worst > 0 then exit worst)

(* --- top --- *)

let top_cmd =
  let watch_flag =
    Spec.flag ~kind:Spec.Bool
      ~doc:
        "Refresh forever (ANSI clear between frames, --interval apart) \
         instead of rendering one frame."
      [ "watch" ]
  in
  let top_interval_flag =
    Spec.flag ~kind:Spec.Value ~docv:"MS" ~default:"1000"
      ~check:Spec.check_int ~doc:"Refresh interval for --watch, in \
                                  milliseconds."
      [ "interval" ]
  in
  let width_flag =
    Spec.flag ~kind:Spec.Value ~docv:"COLS" ~default:"48"
      ~check:Spec.check_int ~doc:"Histogram sparkline width."
      [ "width" ]
  in
  Spec.cmd ~name:"top"
    ~doc:
      "Dashboard over a `vpack serve --metrics` snapshot: counter and cache \
       tables, per-histogram bucket sparklines with p50/p90/p99.  Renders \
       one frame by default; --watch re-reads and redraws live."
    ~exits:
      [
        (0, "snapshot rendered");
        (1, "unreadable or invalid snapshot");
        (2, "command-line error");
      ]
    ~positional:
      {
        Spec.pos_docv = "FILE";
        pos_doc = "vp-metrics-snapshot/1 file (see `vpack serve --metrics`).";
        pos_required = true;
      }
    ~flags:[ watch_flag; top_interval_flag; width_flag ]
    (fun m ->
      let file = List.hd (Spec.positional m) in
      let width = Spec.int_value m "width" in
      let is_cache name =
        String.length name >= 13 && String.sub name 0 13 = "session_cache"
      in
      let frame () =
        match Vp_metrics.Snapshot.read ~path:file with
        | Error e ->
          Printf.eprintf "%s: invalid vp-metrics-snapshot/1: %s\n" file e;
          exit 1
        | Ok samples ->
          Printf.printf "vpack top — %s\n" file;
          let counters, hists =
            List.partition_map
              (fun (name, sample) ->
                match sample with
                | Vp_metrics.Snapshot.Counter v -> Either.Left (name, v)
                | Vp_metrics.Snapshot.Hist h -> Either.Right (name, h))
              samples
          in
          let table title rows =
            if rows <> [] then begin
              Printf.printf "\n%s:\n" title;
              let t =
                Vp_util.Tabular.create
                  ~header:
                    [
                      ("metric", Vp_util.Tabular.Left);
                      ("value", Vp_util.Tabular.Right);
                    ]
              in
              List.iter
                (fun (n, v) -> Vp_util.Tabular.add_row t [ n; string_of_int v ])
                rows;
              Vp_util.Tabular.print t
            end
          in
          let cache, counters = List.partition (fun (n, _) -> is_cache n) counters in
          table "cache" cache;
          table "counters" counters;
          if hists <> [] then begin
            Printf.printf "\nhistograms (log2 buckets):\n";
            List.iter
              (fun (n, h) ->
                let buckets =
                  Array.init Vp_metrics.Hist.buckets
                    (Vp_metrics.Hist.bucket_count h)
                in
                Printf.printf "%-28s|%s| n=%d sum=%d p50=%d p90=%d p99=%d\n" n
                  (Vp_telemetry.Render.sparkline ~width buckets)
                  (Vp_metrics.Hist.count h) (Vp_metrics.Hist.sum h)
                  (Vp_metrics.Hist.quantile h 0.5)
                  (Vp_metrics.Hist.quantile h 0.9)
                  (Vp_metrics.Hist.quantile h 0.99))
              hists
          end
      in
      if not (Spec.flag_set m "watch") then frame ()
      else
        let pause = float_of_int (Spec.int_value m "interval") /. 1000. in
        while true do
          print_string "\027[2J\027[H";
          frame ();
          flush stdout;
          Unix.sleepf pause
        done)

(* --- asm / disasm --- *)

let asm_cmd =
  Spec.cmd ~name:"asm" ~doc:"Assemble and run a textual-assembly source file."
    ~positional:
      {
        Spec.pos_docv = "FILE";
        pos_doc = "Assembly source.";
        pos_required = true;
      }
    ~flags:[ backend_flag ]
    (fun m ->
      let backend = resolve_backend m in
      let file = List.hd (Spec.positional m) in
      match Vp_prog.Asm.parse_program (Vp_util.Io.read_file file) with
      | Error e ->
        Format.eprintf "%s: %a@." file Vp_prog.Asm.pp_error e;
        exit 1
      | Ok p ->
        let o = Emulator.run_backend ~backend (Program.layout p) in
        Printf.printf "%s: %d instructions, result %d%s\n" file
          o.Emulator.instructions o.Emulator.result
          (if o.Emulator.halted then "" else " (fuel exhausted)"))

let disasm_cmd =
  Spec.cmd ~name:"disasm"
    ~doc:"Print a workload's program as textual assembly."
    ~flags:[ workload_flag ]
    (fun m ->
      let w = workload_of m in
      print_string (Vp_prog.Asm.print_program (w.Registry.program ())))

(* --- diag --- *)

let diag_cmd =
  let addr_flag =
    Spec.flag ~kind:Spec.Value ~docv:"ADDR" ~check:Spec.check_int
      ~doc:"Also disassemble around this address of the rewritten image."
      [ "addr" ]
  in
  Spec.cmd ~name:"diag"
    ~doc:"Run the rewritten binary and histogram package boundary crossings."
    ~flags:[ workload_flag; addr_flag; backend_flag ]
    (fun m ->
      let backend = resolve_backend m in
      let w = workload_of m in
      let img = Program.layout (w.Registry.program ()) in
      let config = Config.with_backend backend Config.default in
      let r = Vacuum.Driver.rewrite ~config img in
      let rimg = Vacuum.Driver.rewritten_image r in
      let module Image = Vp_prog.Image in
      let limit = img.Image.orig_limit in
      let exits = Hashtbl.create 64 in
      let entries = Hashtbl.create 64 in
      let bump tbl k =
        Hashtbl.replace tbl k
          (1 + Option.value ~default:0 (Hashtbl.find_opt tbl k))
      in
      (* Crossings are counted once per retirement run.  Inside a run
         control falls through pc -> pc + 1, so the only crossing there
         is an entry [limit - 1 -> limit]; the run's last instruction
         crosses to [next_pc]. *)
      let on_run ~addrs:_ ~start ~len ~taken:_ ~next_pc =
        let last = start + len - 1 in
        if start < limit && limit <= last then bump entries (limit - 1, limit);
        if next_pc >= 0 then begin
          let from_pkg = last >= limit in
          let to_pkg = next_pc >= limit in
          if from_pkg && not to_pkg then bump exits (last, next_pc);
          if (not from_pkg) && to_pkg then bump entries (last, next_pc)
        end
      in
      let o = Emulator.run_backend ~backend ~on_run rimg in
      Printf.printf "coverage %.1f%% (%d/%d instructions in packages)\n"
        (Vp_util.Stats.pct o.Emulator.package_instructions
           o.Emulator.instructions)
        o.Emulator.package_instructions o.Emulator.instructions;
      let top tbl name =
        let l = Hashtbl.fold (fun k v acc -> (v, k) :: acc) tbl [] in
        let l = List.sort (fun a b -> compare (fst b) (fst a)) l in
        Printf.printf "%s (%d distinct):\n" name (List.length l);
        List.iteri
          (fun i (count, (src, dst)) ->
            if i < 12 then begin
              let sym a =
                match Image.sym_at rimg a with
                | Some s -> s.Image.name
                | None -> "?"
              in
              Printf.printf "  %8d  0x%x (%s) -> 0x%x (%s)\n" count src
                (sym src) dst (sym dst)
            end)
          l
      in
      top exits "exits package->original";
      top entries "entries original->package";
      match Spec.value m "addr" with
      | None -> ()
      | Some addr ->
        let center = int_of_string addr in
        Printf.printf "\ndisassembly around 0x%x:\n" center;
        for a = max 0 (center - 10) to min (Image.size rimg - 1) (center + 10)
        do
          Printf.printf "%s %5x: %s\n"
            (if a = center then ">" else " ")
            a
            (Vp_isa.Instr.to_string (Image.fetch rimg a))
        done)

(* --- verify --- *)

let verify_cmd =
  Spec.cmd ~name:"verify"
    ~doc:
      "Run the pipeline and the package soundness verifier on every emitted \
       package; exit 4 if any check fails."
    ~positional:workload_pos
    ~exits:
      [
        (0, "a sound image");
        (4, "a verifier rejection");
        (3, "a pipeline error");
      ]
    ~flags:[ no_inference_flag; no_linking_flag; backend_flag ]
    (fun m ->
      let backend = resolve_backend m in
      let w = workload_of_pos m in
      let img = Program.layout (w.Registry.program ()) in
      let config = Config.with_backend backend (config_of m) in
      let r = Vacuum.Driver.rewrite ~config img in
      Format.printf "%s: %a@." (Registry.name w) Vp_package.Verify.pp_report
        r.Vacuum.Driver.verification;
      (* The shipped image is sound by construction — rejected packages
         were demoted away — so the verdict is the ladder's record of
         what the pipeline wanted to emit and could not. *)
      let stages =
        List.map
          (fun (d : Vacuum.Driver.demotion) ->
            Format.printf "  demoted: %a@." Vacuum.Driver.pp_demotion d;
            d.Vacuum.Driver.error.Vacuum.Error.stage)
          r.Vacuum.Driver.demotions
      in
      if List.mem "verify" stages then exit 4 else if stages <> [] then exit 3)

(* --- chaos --- *)

let chaos_cmd =
  let seed_flag =
    Spec.flag ~kind:Spec.Value ~docv:"S" ~default:"0" ~check:Spec.check_int
      ~doc:"Root seed of the matrix." [ "seed" ]
  in
  let report_flag =
    Spec.flag ~kind:Spec.Value ~docv:"FILE"
      ~doc:"Write the cell table (plus failures) to FILE." [ "report" ]
  in
  Spec.cmd ~name:"chaos"
    ~doc:
      "Run the seed x fault-plan chaos matrix: every preset fault plan, \
       asserting the differential oracle on each rewritten image; exit 5 on \
       any cell failure."
    ~positional:workload_pos
    ~exits:
      [
        (0, "every cell equivalent and verified");
        (5, "a cell failure");
        (3, "a pipeline error");
      ]
    ~flags:[ seeds_flag; seed_flag; jobs_flag; report_flag; backend_flag ]
    (fun m ->
      let backend = resolve_backend m in
      let w = workload_of_pos m in
      let seeds = Spec.int_value m "seeds" in
      let seed = Spec.int_value m "seed" in
      let img = Program.layout (w.Registry.program ()) in
      let result =
        Vacuum.Chaos.matrix
          ~config:(Config.with_backend backend Config.default)
          ~seeds ~seed ~jobs:(resolve_jobs m) img
      in
      let table = Vacuum.Chaos.table result in
      Printf.printf "%s: %d fault plans x %d seeds\n%s\n" (Registry.name w)
        (List.length Vp_fault.Plan.presets)
        seeds table;
      let failed = Vacuum.Chaos.failures result in
      (match Spec.value m "report" with
      | None -> ()
      | Some path ->
        let buf = Buffer.create 4096 in
        Printf.bprintf buf "%s: %d fault plans x %d seeds, root seed %d\n%s\n"
          (Registry.name w)
          (List.length Vp_fault.Plan.presets)
          seeds seed table;
        List.iter
          (fun (c : Vacuum.Chaos.cell) ->
            Printf.bprintf buf "FAILED: %s\n"
              (Format.asprintf "%a seed-index %d%s%s" Vp_fault.Plan.pp
                 c.Vacuum.Chaos.plan c.Vacuum.Chaos.seed_index
                 (if c.Vacuum.Chaos.verified then ""
                  else " [verifier rejection]")
                 (if c.Vacuum.Chaos.equivalent then ""
                  else " [oracle mismatch]")))
          failed;
        Vp_util.Io.write_file path (Buffer.contents buf);
        Printf.printf "report -> %s\n" path);
      if failed <> [] then begin
        Printf.eprintf "chaos: %d of %d cells failed the oracle or verifier\n"
          (List.length failed)
          (List.length result.Vacuum.Chaos.cells);
        exit 5
      end)

(* --- fuzz --- *)

let fuzz_cmd =
  let count_flag =
    Spec.flag ~kind:Spec.Value ~docv:"N" ~default:"50" ~check:Spec.check_int
      ~doc:"Generated binaries to put through the campaign." [ "count" ]
  in
  let fuzz_seeds_flag =
    Spec.flag ~kind:Spec.Value ~docv:"N" ~default:"1" ~check:Spec.check_int
      ~doc:"Chaos seeds per fault plan per generated binary." [ "seeds" ]
  in
  let seed_flag =
    Spec.flag ~kind:Spec.Value ~docv:"S" ~default:"0" ~check:Spec.check_int
      ~doc:"Root seed of the campaign's case derivation." [ "seed" ]
  in
  let report_flag =
    Spec.flag ~kind:Spec.Value ~docv:"FILE"
      ~doc:"Write the campaign report to FILE as well as stdout." [ "report" ]
  in
  let corpus_flag =
    Spec.flag ~kind:Spec.Value ~docv:"DIR"
      ~doc:
        "Write one shrunk vp-fuzz-repro/1 file per failing case into DIR \
         (created if missing)."
      [ "corpus" ]
  in
  let replay_flag =
    Spec.flag ~kind:Spec.Value ~docv:"FILE" ~repeatable:true
      ~doc:
        "Replay committed vp-fuzz-repro/1 file(s) instead of sampling new \
         cases; exit 6 if any still fails."
      [ "replay" ]
  in
  let max_phases_flag =
    Spec.flag ~kind:Spec.Value ~docv:"N" ~default:"4" ~check:Spec.check_int
      ~doc:"Largest planted phase count sampled." [ "max-phases" ]
  in
  let max_hot_flag =
    Spec.flag ~kind:Spec.Value ~docv:"N" ~default:"5" ~check:Spec.check_int
      ~doc:"Largest per-phase hot-function count sampled." [ "max-hot" ]
  in
  let max_iters_flag =
    Spec.flag ~kind:Spec.Value ~docv:"N" ~default:"60" ~check:Spec.check_int
      ~doc:"Largest per-phase iteration count sampled." [ "max-iters" ]
  in
  Spec.cmd ~name:"fuzz"
    ~doc:
      "Statistical chaos campaign over generated binaries: each case runs \
       the full profile -> package -> verify -> rewrite pipeline under the \
       fault-plan matrix with the differential oracle, plus \
       vp-retire-trace/1 round-trip, ingestion-equivalence and \
       corruption-totality checks; failures are shrunk to minimal repro \
       files.  Reports are byte-identical across --jobs and backends."
    ~exits:
      [
        (0, "every case passed");
        (6, "a case crashed or failed an oracle (after shrinking)");
        (3, "a pipeline error");
      ]
    ~flags:
      [
        count_flag; fuzz_seeds_flag; seed_flag; jobs_flag; backend_flag;
        report_flag; corpus_flag; replay_flag; max_phases_flag; max_hot_flag;
        max_iters_flag;
      ]
    (fun m ->
      let backend = resolve_backend m in
      let config = Config.with_backend backend Vp_gen.Campaign.default_config in
      let chaos_seeds = Spec.int_value m "seeds" in
      match Spec.values m "replay" with
      | _ :: _ as files ->
        let failed =
          List.filter
            (fun path ->
              match Vp_gen.Campaign.load_repro_file ~path with
              | Error e -> Vacuum.Error.failf ~stage:"fuzz" "%s: %s" path e
              | Ok r -> (
                match Vp_gen.Campaign.replay ~config ~chaos_seeds r with
                | Ok o ->
                  Printf.printf
                    "%s: seed %d passes (%d cells, %d trace events)\n" path
                    r.Vp_gen.Campaign.spec.Vp_gen.Campaign.seed
                    o.Vp_gen.Campaign.cells o.Vp_gen.Campaign.trace_events;
                  false
                | Error f ->
                  Printf.printf "%s: seed %d still FAILS [%s] %s\n" path
                    r.Vp_gen.Campaign.spec.Vp_gen.Campaign.seed
                    f.Vp_gen.Campaign.stage f.Vp_gen.Campaign.detail;
                  true))
            files
        in
        if failed <> [] then begin
          Printf.eprintf "fuzz: %d of %d repro(s) still failing\n"
            (List.length failed) (List.length files);
          exit 6
        end
      | [] ->
        let bounds =
          {
            Vp_gen.Gen.default_bounds with
            Vp_gen.Gen.max_phases = Spec.int_value m "max-phases";
            max_hot_funcs = Spec.int_value m "max-hot";
            max_phase_iters = Spec.int_value m "max-iters";
          }
        in
        let report =
          Vp_gen.Campaign.run ~config ~bounds ~chaos_seeds
            ~jobs:(resolve_jobs m)
            ~root_seed:(Spec.int_value m "seed")
            ~count:(Spec.int_value m "count")
            ()
        in
        let text = Vp_gen.Campaign.render report in
        print_string text;
        (match Spec.value m "report" with
        | None -> ()
        | Some path ->
          Vp_util.Io.write_file path text;
          Printf.printf "report -> %s\n" path);
        (match Spec.value m "corpus" with
        | Some dir when report.Vp_gen.Campaign.repros <> [] ->
          List.iter
            (Printf.printf "repro -> %s\n")
            (Vp_gen.Campaign.save_repros ~dir report)
        | _ -> ());
        if not (Vp_gen.Campaign.ok report) then begin
          Printf.eprintf "fuzz: %d of %d cases failed\n"
            (List.length
               (List.filter
                  (fun (o : Vp_gen.Campaign.outcome) ->
                    o.Vp_gen.Campaign.failure <> None)
                  report.Vp_gen.Campaign.outcomes))
            report.Vp_gen.Campaign.count;
          exit 6
        end)

(* --- machine --- *)

let machine_cmd =
  Spec.cmd ~name:"machine"
    ~doc:"Print the simulated EPIC machine model (Table 2)." ~flags:[]
    (fun _ -> Format.printf "%a@." Vp_cpu.Config.pp Vp_cpu.Config.default)

(* ---- the tool table ---- *)

let tool =
  {
    Spec.tool_name = "vpack";
    version = "1.0.0";
    tool_doc = "Vacuum Packing: phase-based post-link optimization";
    cmds =
      [
        list_cmd; run_cmd; phases_cmd; extract_cmd; aggregate_cmd; report_cmd;
        stats_cmd; timeline_cmd; serve_cmd; top_cmd; trace_check_cmd;
        verify_cmd;
        chaos_cmd; fuzz_cmd; diag_cmd; asm_cmd; disasm_cmd; machine_cmd;
      ];
  }

(* Worker domains log too (coverage, linking, the demotion ladder), and
   [Logs.format_reporter] shares one [Format] formatter between them,
   whose queue is not domain-safe.  Here each message is formatted into
   a string on its own domain and written in one locked call. *)
let reporter ?(write = fun s -> output_string stderr s; flush stderr) () =
  let lock = Mutex.create () in
  let exec = Filename.basename Sys.executable_name in
  let report _src level ~over k msgf =
    msgf @@ fun ?header ?tags:_ fmt ->
    Format.kasprintf
      (fun line ->
        Mutex.protect lock (fun () -> write line);
        over ();
        k ())
      ("%s: %a @[" ^^ fmt ^^ "@]@.")
      exec Logs.pp_header (level, header)
  in
  { Logs.report }

let setup_logs () =
  Logs.set_reporter (reporter ());
  Logs.set_level (Some Logs.Warning)

let main () =
  setup_logs ();
  (* Pipeline failures carry a structured payload; render it and exit
     cleanly instead of dumping a backtrace.  An I/O failure (a file
     that cannot be opened or written) exits the same way: the command
     line was fine, the file system was not.  Usage errors — an unknown
     subcommand or bad flag (the Spec dispatcher's own exit 2) and an
     unknown or ambiguous workload (the [cli] stage) — all land on exit
     2 with a pointer at the usage. *)
  match Spec.main tool Sys.argv with
  | code -> exit code
  | exception Vacuum.Error.Error e when e.Vacuum.Error.stage = "cli" ->
    Format.eprintf "vpack: %a@." Vacuum.Error.pp e;
    Format.eprintf "Usage: vpack COMMAND …; try 'vpack --help'.@.";
    exit 2
  | exception Vacuum.Error.Error e ->
    Format.eprintf "vpack: %a@." Vacuum.Error.pp e;
    exit 3
  | exception Sys_error msg ->
    Format.eprintf "vpack: %s@." msg;
    exit 3
