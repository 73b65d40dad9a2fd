(* Integration tests for the vacuum core library: the full driver on
   real workloads, configuration wiring, and every evaluation metric. *)

module Registry = Vp_workloads.Registry
module Program = Vp_prog.Program
module Emulator = Vp_exec.Emulator
module Config = Vacuum.Config
module Driver = Vacuum.Driver
module Coverage = Vacuum.Coverage
module Expansion = Vacuum.Expansion
module Speedup = Vacuum.Speedup
module Report = Vacuum.Report
module Progs = Vp_test_support.Progs

(* Small but realistic: perl's short input exercises multiple phases,
   shared roots and linking. *)
let perl_image =
  lazy
    (let w = Option.get (Registry.find ~bench:"134.perl" ~input:"B") in
     Program.layout (w.Registry.program ()))

let perl_profile = lazy (Driver.profile (Lazy.force perl_image))

let test_config_experiments () =
  let c = Config.experiment ~inference:false ~linking:true in
  Alcotest.(check bool) "inference off" false
    (Config.identify c).Vp_region.Identify.block_inference;
  Alcotest.(check bool) "linking on" true (Config.linking c);
  Alcotest.(check string) "name" "no inference, with linking"
    (Config.experiment_name ~inference:false ~linking:true);
  let tiny = Config.with_detector Vp_hsd.Config.tiny Config.default in
  Alcotest.(check int) "detector swapped" 1 (Config.detector tiny).Vp_hsd.Config.sets

let test_profile_contents () =
  let p = Lazy.force perl_profile in
  Alcotest.(check bool) "ran to completion" true p.Driver.outcome.Emulator.halted;
  Alcotest.(check bool) "snapshots recorded" true (p.Driver.snapshots <> []);
  Alcotest.(check bool) "phases found" true
    (Vp_phase.Phase_log.unique_count p.Driver.log >= 2);
  Alcotest.(check bool) "aggregate profile populated" true
    (Vp_exec.Branch_profile.branches p.Driver.aggregate > 5);
  (* Aggregate counts match the emulator's branch total. *)
  Alcotest.(check int) "aggregate total" p.Driver.outcome.Emulator.cond_branches
    (Vp_exec.Branch_profile.total_executed p.Driver.aggregate)

let test_rewrite_structure () =
  let r = Driver.rewrite_of_profile (Lazy.force perl_profile) in
  Alcotest.(check bool) "regions per phase" true
    (List.length r.Driver.regions
    = Vp_phase.Phase_log.unique_count r.Driver.source.Driver.log);
  Alcotest.(check bool) "packages built" true (r.Driver.packages <> []);
  (* interp must be a root in at least two phase packages: the shared
     launch point of the paper's perl example. *)
  let interp_packages =
    List.filter (fun p -> p.Vp_package.Pkg.root = "interp") r.Driver.packages
  in
  Alcotest.(check bool) "interp rooted in >= 2 packages" true
    (List.length interp_packages >= 2)

let test_coverage_and_equivalence () =
  let r = Driver.rewrite_of_profile (Lazy.force perl_profile) in
  let c = Coverage.measure r in
  Alcotest.(check bool) "equivalent" true c.Coverage.equivalent;
  Alcotest.(check bool)
    (Printf.sprintf "coverage %.1f%% high" c.Coverage.coverage_pct)
    true
    (c.Coverage.coverage_pct > 80.0)

let test_linking_improves_perl () =
  let p = Lazy.force perl_profile in
  let with_link =
    Coverage.measure
      ~config:(Config.experiment ~inference:true ~linking:true)
      (Driver.rewrite_of_profile
         ~config:(Config.experiment ~inference:true ~linking:true)
         p)
  in
  let without =
    Coverage.measure
      ~config:(Config.experiment ~inference:true ~linking:false)
      (Driver.rewrite_of_profile
         ~config:(Config.experiment ~inference:true ~linking:false)
         p)
  in
  Alcotest.(check bool)
    (Printf.sprintf "linking >= no linking (%.1f vs %.1f)"
       with_link.Coverage.coverage_pct without.Coverage.coverage_pct)
    true
    (with_link.Coverage.coverage_pct >= without.Coverage.coverage_pct);
  Alcotest.(check bool) "no-linking still equivalent" true without.Coverage.equivalent

let test_expansion_metrics () =
  let r = Driver.rewrite_of_profile (Lazy.force perl_profile) in
  let e = Expansion.measure r in
  Alcotest.(check bool) "selected <= original" true
    (e.Expansion.selected_static <= e.Expansion.original_static);
  Alcotest.(check bool) "selected nonzero" true (e.Expansion.selected_static > 0);
  Alcotest.(check bool) "replication >= 1" true (e.Expansion.replication >= 1.0);
  Alcotest.(check bool) "moderate expansion" true (e.Expansion.increase_pct < 50.0);
  (* package_static consistency with the emitted image. *)
  Alcotest.(check int) "package static consistent"
    r.Driver.emitted.Vp_package.Emit.package_instructions e.Expansion.package_static

let test_speedup_positive () =
  let r = Driver.rewrite_of_profile (Lazy.force perl_profile) in
  let s = Speedup.measure r in
  Alcotest.(check bool)
    (Printf.sprintf "speedup %.3f sane" s.Speedup.speedup)
    true
    (s.Speedup.speedup > 0.8 && s.Speedup.speedup < 3.0);
  Alcotest.(check bool) "baseline cycles > 0" true (s.Speedup.baseline.Vp_cpu.Pipeline.cycles > 0)

let test_report_fields () =
  let report =
    Report.evaluate_profile ~timing:false ~name:"134.perl/B" (Lazy.force perl_profile)
  in
  Alcotest.(check string) "name" "134.perl/B" report.Report.name;
  Alcotest.(check bool) "instructions counted" true (report.Report.instructions > 100_000);
  Alcotest.(check bool) "recordings <= detections" true
    (report.Report.recordings <= report.Report.raw_detections);
  Alcotest.(check bool) "phases" true (report.Report.unique_phases >= 2);
  (match report.Report.speedup with
  | None -> ()
  | Some _ -> Alcotest.fail "timing was disabled");
  let total = List.fold_left (fun acc (_, p) -> acc +. p) 0.0 report.Report.categories in
  Alcotest.(check (float 1e-6)) "categories sum to 100" 100.0 total;
  (* Rendering succeeds and mentions the workload. *)
  let text = Format.asprintf "%a" Report.pp report in
  Alcotest.(check bool) "render mentions name" true
    (String.length text > 40)

let test_hardware_history_reduces_recordings () =
  let img = Lazy.force perl_image in
  let base = Driver.profile img in
  let with_history =
    Driver.profile ~config:(Config.with_history_size 4 Config.default) img
  in
  Alcotest.(check bool)
    (Printf.sprintf "history reduces recordings (%d -> %d)"
       (List.length base.Driver.snapshots)
       (List.length with_history.Driver.snapshots))
    true
    (List.length with_history.Driver.snapshots < List.length base.Driver.snapshots);
  (* And the phase structure survives the filtering. *)
  Alcotest.(check bool) "phases survive" true
    (Vp_phase.Phase_log.unique_count with_history.Driver.log >= 2)

let test_aggregate_snapshot () =
  let p = Lazy.force perl_profile in
  let snap = Vacuum.Aggregate.snapshot_of_profile p in
  let module S = Vp_hsd.Snapshot in
  Alcotest.(check bool) "selected some branches" true (snap.S.branches <> []);
  (* Every selected branch clears the share floor and keeps its exact
     aggregate counts. *)
  let total = p.Driver.outcome.Vp_exec.Emulator.cond_branches in
  List.iter
    (fun e ->
      Alcotest.(check bool) "above floor" true
        (e.S.executed >= max 1 (int_of_float (0.001 *. float_of_int total)));
      let executed, taken =
        Option.get (Vp_exec.Branch_profile.find p.Driver.aggregate e.S.pc)
      in
      Alcotest.(check int) "exact executed" executed e.S.executed;
      Alcotest.(check int) "exact taken" taken e.S.taken)
    snap.S.branches;
  let pcs = S.branch_pcs snap in
  Alcotest.(check bool) "sorted" true (List.sort compare pcs = pcs)

let test_aggregate_rewrite_equivalence () =
  let p = Lazy.force perl_profile in
  let r = Vacuum.Aggregate.rewrite p in
  Alcotest.(check int) "single pseudo-phase" 1 (List.length r.Driver.regions);
  let c = Vacuum.Coverage.measure r in
  Alcotest.(check bool) "equivalent" true c.Coverage.equivalent;
  Alcotest.(check bool) "covers execution" true (c.Coverage.coverage_pct > 70.0)

let test_profile_truncation_flag () =
  let img = Program.layout (Progs.two_phase ~iters_per_phase:3000 ~repeats:3) in
  let config = Config.with_detector Vp_hsd.Config.tiny Config.default in
  let full = Driver.profile ~config img in
  Alcotest.(check bool) "full run not truncated" false full.Driver.truncated;
  let starved = Driver.profile ~config:(Config.with_fuel 500 config) img in
  Alcotest.(check bool) "starved run truncated" true starved.Driver.truncated;
  Alcotest.(check bool) "outcome not halted" false
    starved.Driver.outcome.Emulator.halted;
  Alcotest.(check bool) "fuel bounds instructions" true
    (starved.Driver.outcome.Emulator.instructions <= 500)

(* The matrix determinism contract: whatever the jobs count, every
   artefact of a workload's profile → rewrite → coverage → timing chain
   — coverage, architectural checksums, cycle-accurate timing — is
   identical to the sequential reference schedule. *)
let matrix_fingerprint jobs =
  let detector = Vp_hsd.Config.tiny in
  let profile_config = Config.with_detector detector Config.default in
  let cells =
    List.map
      (fun (inference, linking) ->
        ( Printf.sprintf "%b%b" inference linking,
          Config.with_detector detector (Config.experiment ~inference ~linking) ))
      [ (true, true); (true, false) ]
  in
  let row (name, iters_per_phase, repeats) =
    let image = Program.layout (Progs.two_phase ~iters_per_phase ~repeats) in
    let p = Driver.profile ~config:profile_config image in
    let b =
      Vp_cpu.Pipeline.simulate ~config:(Config.cpu profile_config) image
    in
    Printf.sprintf "%s baseline %d cycles %d instrs" name
      b.Vp_cpu.Pipeline.cycles b.Vp_cpu.Pipeline.instructions
    :: List.concat_map
         (fun (key, config) ->
           let r = Driver.rewrite_of_profile ~config p in
           let c = Coverage.measure ~config r in
           let s =
             Vp_cpu.Pipeline.simulate ~config:(Config.cpu config)
               (Driver.rewritten_image r)
           in
           [
             Printf.sprintf "%s/%s coverage %.6f equivalent %b checksum %d"
               name key c.Coverage.coverage_pct c.Coverage.equivalent
               c.Coverage.outcome.Emulator.checksum;
             Printf.sprintf "%s/%s optimized %d cycles %d instrs" name key
               s.Vp_cpu.Pipeline.cycles s.Vp_cpu.Pipeline.instructions;
           ])
         cells
  in
  List.concat
    (Vp_util.Pool.map ~jobs row
       [ ("two-phase", 3000, 3); ("two-phase-short", 2000, 2) ])

let test_parallel_matches_sequential () =
  let sequential = matrix_fingerprint 1 in
  let parallel = matrix_fingerprint 4 in
  Alcotest.(check (list string)) "jobs=4 matches jobs=1" sequential parallel

let test_driver_on_builder_program () =
  (* The pipeline also works on plain builder programs with the tiny
     detector, end to end through the public API. *)
  let img = Program.layout (Progs.two_phase ~iters_per_phase:3000 ~repeats:3) in
  let config = Config.with_detector Vp_hsd.Config.tiny Config.default in
  let r = Driver.rewrite ~config img in
  let c = Coverage.measure ~config r in
  Alcotest.(check bool) "equivalent" true c.Coverage.equivalent;
  Alcotest.(check bool) "covered" true (c.Coverage.coverage_pct > 50.0)

let () =
  Alcotest.run "vacuum_core"
    [
      ( "config",
        [ Alcotest.test_case "experiments" `Quick test_config_experiments ] );
      ( "driver",
        [
          Alcotest.test_case "profile contents" `Slow test_profile_contents;
          Alcotest.test_case "rewrite structure" `Slow test_rewrite_structure;
          Alcotest.test_case "builder program" `Quick test_driver_on_builder_program;
          Alcotest.test_case "hardware history" `Slow test_hardware_history_reduces_recordings;
          Alcotest.test_case "truncation flag" `Quick test_profile_truncation_flag;
        ] );
      ( "matrix",
        [
          Alcotest.test_case "parallel matches sequential" `Quick
            test_parallel_matches_sequential;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "coverage + equivalence" `Slow test_coverage_and_equivalence;
          Alcotest.test_case "linking improves perl" `Slow test_linking_improves_perl;
          Alcotest.test_case "expansion" `Slow test_expansion_metrics;
          Alcotest.test_case "speedup" `Slow test_speedup_positive;
          Alcotest.test_case "report fields" `Slow test_report_fields;
          Alcotest.test_case "aggregate snapshot" `Slow test_aggregate_snapshot;
          Alcotest.test_case "aggregate rewrite" `Slow test_aggregate_rewrite_equivalence;
        ] );
    ]
