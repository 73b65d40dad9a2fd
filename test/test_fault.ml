(* Tests for the fault-injection harness, the package soundness
   verifier, and the pipeline's graceful-degradation ladder. *)

module R = Vp_util.Rng
module Plan = Vp_fault.Plan
module Inject = Vp_fault.Inject
module Snapshot = Vp_hsd.Snapshot
module Image = Vp_prog.Image
module Instr = Vp_isa.Instr
module Program = Vp_prog.Program
module Emulator = Vp_exec.Emulator
module Verify = Vp_package.Verify
module Emit = Vp_package.Emit
module Pkg = Vp_package.Pkg
module Driver = Vacuum.Driver
module Config = Vacuum.Config
module Chaos = Vacuum.Chaos
module Progs = Vp_test_support.Progs
module Gen = Vp_test_support.Gen
module Registry = Vp_workloads.Registry

let counter_max = 511

(* --- Rng splittable streams --- *)

let test_stream_keyed_deterministic () =
  let a = R.stream (R.create ~seed:42) 7 in
  let b = R.stream (R.create ~seed:42) 7 in
  Alcotest.(check int) "same key same stream" (R.next a) (R.next b);
  let c = R.stream (R.create ~seed:42) 8 in
  Alcotest.(check bool) "distinct keys decorrelate" true
    (R.next (R.stream (R.create ~seed:42) 7) <> R.next c)

let test_stream_schedule_independent () =
  (* Deriving streams in any order yields the same streams: stream
     does not advance the parent, unlike split. *)
  let r1 = R.create ~seed:99 in
  let a1 = R.stream r1 3 in
  let b1 = R.stream r1 5 in
  let r2 = R.create ~seed:99 in
  let b2 = R.stream r2 5 in
  let a2 = R.stream r2 3 in
  Alcotest.(check int) "a independent of order" (R.next a1) (R.next a2);
  Alcotest.(check int) "b independent of order" (R.next b1) (R.next b2);
  Alcotest.(check int) "parent untouched"
    (R.next (R.create ~seed:99))
    (R.next r1)

let test_stream_seed_nonnegative () =
  let root = R.create ~seed:123 in
  for k = 0 to 100 do
    Alcotest.(check bool) "non-negative" true (R.stream_seed root k >= 0)
  done

(* --- Inject --- *)

let entry pc executed taken = { Snapshot.pc; executed; taken }

let snaps_fixture =
  List.init 10 (fun i ->
      {
        Snapshot.id = i;
        detected_at = i * 1000;
        ended_at = (i * 1000) + 800;
        branches =
          [ entry 10 100 60; entry 20 (40 + i) 7; entry 30 500 499 ];
      })

let test_inject_clean_is_identity () =
  let out = Inject.snapshots ~plan:Plan.clean ~counter_max snaps_fixture in
  Alcotest.(check bool) "physically unchanged" true (out == snaps_fixture);
  Alcotest.(check int) "fuel unchanged" 12345
    (Inject.fuel ~plan:Plan.clean 12345)

let test_inject_deterministic () =
  let plan = Plan.with_seed (Option.get (Plan.find_preset "drop-snapshots")) 5 in
  let a = Inject.snapshots ~plan ~counter_max snaps_fixture in
  let b = Inject.snapshots ~plan ~counter_max snaps_fixture in
  Alcotest.(check bool) "same plan same faults" true (a = b);
  let c =
    Inject.snapshots ~plan:(Plan.with_seed plan 6) ~counter_max snaps_fixture
  in
  Alcotest.(check bool) "different seed different faults" true (a <> c)

let test_inject_saturate_bounds () =
  let plan = Plan.v ~saturate:1.0 "all-sat" in
  let out = Inject.snapshots ~plan ~counter_max snaps_fixture in
  List.iter
    (fun (s : Snapshot.t) ->
      List.iter
        (fun (e : Snapshot.entry) ->
          Alcotest.(check int) "executed saturated" counter_max e.Snapshot.executed;
          Alcotest.(check int) "taken saturated" counter_max e.Snapshot.taken)
        s.Snapshot.branches)
    out

let test_inject_truncate () =
  let plan = Plan.v ~truncate_frac:0.5 "half" in
  let out = Inject.snapshots ~plan ~counter_max snaps_fixture in
  Alcotest.(check bool) "shorter" true
    (List.length out < List.length snaps_fixture);
  let cut =
    List.fold_left (fun m (s : Snapshot.t) -> max m s.Snapshot.ended_at) 0 out
  in
  let full =
    List.fold_left
      (fun m (s : Snapshot.t) -> max m s.Snapshot.ended_at)
      0 snaps_fixture
  in
  Alcotest.(check bool) "extent clipped" true (cut < full);
  List.iter
    (fun (s : Snapshot.t) ->
      Alcotest.(check bool) "well-formed extent" true
        (s.Snapshot.ended_at >= s.Snapshot.detected_at))
    out

let test_inject_duplicate_and_alias () =
  let dup = Plan.v ~duplicate:1.0 "dup" in
  let out = Inject.snapshots ~plan:dup ~counter_max snaps_fixture in
  Alcotest.(check int) "every snapshot doubled"
    (2 * List.length snaps_fixture)
    (List.length out);
  Alcotest.(check bool) "ids renumbered" true
    (List.mapi (fun i _ -> i) out
    = List.map (fun (s : Snapshot.t) -> s.Snapshot.id) out);
  let alias = Plan.v ~alias:1.0 "alias" in
  let out = Inject.snapshots ~plan:alias ~counter_max snaps_fixture in
  List.iter
    (fun (s : Snapshot.t) ->
      Alcotest.(check int) "one entry folded" 2
        (List.length s.Snapshot.branches);
      (* Entries stay ascending by pc and within counter range. *)
      let pcs = List.map (fun (e : Snapshot.entry) -> e.Snapshot.pc) s.Snapshot.branches in
      Alcotest.(check bool) "ascending" true (List.sort compare pcs = pcs);
      List.iter
        (fun (e : Snapshot.entry) ->
          Alcotest.(check bool) "counters bounded" true
            (e.Snapshot.executed <= counter_max
            && e.Snapshot.taken <= e.Snapshot.executed))
        s.Snapshot.branches)
    out

(* --- soundness verifier --- *)

let rewrite_fixture =
  lazy
    (let img = Program.layout (Progs.two_phase ~iters_per_phase:3000 ~repeats:3) in
     (img, Driver.rewrite img))

let test_verifier_accepts_pipeline_output () =
  let _, r = Lazy.force rewrite_fixture in
  let report = r.Driver.verification in
  Alcotest.(check bool) "packages emitted" true (report.Verify.packages > 0);
  Alcotest.(check bool)
    (Format.asprintf "sound: %a" Verify.pp_report report)
    true (Verify.ok report);
  Alcotest.(check (list (of_pp Driver.pp_demotion))) "no demotions" []
    r.Driver.demotions

let test_verifier_rejects_unresolved_label () =
  let img, r = Lazy.force rewrite_fixture in
  let e = r.Driver.emitted in
  let broken =
    {
      e with
      Emit.image =
        Image.patch e.Emit.image
          [ (img.Image.orig_limit, Instr.Jmp { target = Instr.Label "bogus" }) ];
    }
  in
  let report = Verify.check ~original:img broken in
  Alcotest.(check bool) "rejected" false (Verify.ok report);
  Alcotest.(check bool) "names the label" true
    (List.exists
       (fun (v : Verify.violation) -> v.Verify.label = Some "bogus")
       report.Verify.violations)

let test_verifier_rejects_tampered_original_code () =
  let img, r = Lazy.force rewrite_fixture in
  let e = r.Driver.emitted in
  (* Overwrite an original-code instruction outside the launch-patch
     set: the rewrite is no longer reversible. *)
  let patched = List.map fst e.Emit.launch_patches in
  let addr =
    let rec find a =
      if List.mem a patched || Image.fetch img a = Instr.Halt then find (a + 1)
      else a
    in
    find 0
  in
  let broken =
    { e with Emit.image = Image.patch e.Emit.image [ (addr, Instr.Halt) ] }
  in
  let report = Verify.check ~original:img broken in
  Alcotest.(check bool) "rejected" false (Verify.ok report)

let test_verifier_rejects_dropped_live_out () =
  let img, r = Lazy.force rewrite_fixture in
  let e = r.Driver.emitted in
  (* Blank every exit block's dummy consumers; at least one side exit
     has live registers in this fixture, so the verifier must object. *)
  let strip (p : Pkg.t) =
    {
      p with
      Pkg.blocks =
        Array.map
          (fun (b : Pkg.block) -> if b.Pkg.is_exit then { b with Pkg.live_out = 0 } else b)
          p.Pkg.blocks;
    }
  in
  let broken = { e with Emit.packages = List.map strip e.Emit.packages } in
  let report = Verify.check ~original:img broken in
  Alcotest.(check bool) "rejected" false (Verify.ok report);
  Alcotest.(check bool) "liveness violation" true
    (List.exists
       (fun (v : Verify.violation) ->
         String.length v.Verify.what >= 9
         && String.sub v.Verify.what 0 9 = "side exit")
       report.Verify.violations)

(* The whole violation text, pinned: drop one live register from the
   first side exit that still leaves to original code, then every live
   register from it; the dropped registers are named in ascending
   order, with the package, the exit's target and its label. *)
let test_verifier_liveness_message () =
  let img, r = Lazy.force rewrite_fixture in
  let e = r.Driver.emitted in
  let exits =
    List.concat_map
      (fun (p : Pkg.t) ->
        List.filter_map
          (fun j ->
            let b = p.Pkg.blocks.(j) in
            match b.Pkg.term with
            | Pkg.Exit_jump target when b.Pkg.live_out <> 0 ->
              Some (p.Pkg.id, b.Pkg.label, target, b.Pkg.live_out)
            | _ -> None)
          (Array.to_list p.Pkg.order))
      e.Emit.packages
  in
  let pkg, label, target, live =
    match exits with
    | x :: _ -> x
    | [] -> Alcotest.fail "fixture has no side exit with live registers"
  in
  let regs = Vp_isa.Reg.of_mask live in
  let drop dropped =
    let keep (b : Pkg.block) =
      if b.Pkg.label = label then
        {
          b with
          Pkg.live_out =
            List.fold_left
              (fun m r -> m land lnot (Vp_isa.Reg.bit r))
              b.Pkg.live_out dropped;
        }
      else b
    in
    let broken =
      {
        e with
        Emit.packages =
          List.map
            (fun (p : Pkg.t) ->
              if p.Pkg.id = pkg then { p with Pkg.blocks = Array.map keep p.Pkg.blocks } else p)
            e.Emit.packages;
      }
    in
    List.map
      (fun (v : Verify.violation) ->
        Printf.sprintf "%s | %s | %s | %s" v.Verify.what
          (Option.value ~default:"-" v.Verify.pkg)
          (Option.fold ~none:"-" ~some:(Printf.sprintf "0x%x") v.Verify.addr)
          (Option.value ~default:"-" v.Verify.label))
      (Verify.check ~original:img broken).Verify.violations
  in
  let expected dropped =
    [
      Printf.sprintf "side exit drops live registers [%s] | %s | 0x%x | %s"
        (String.concat "," (List.map Vp_isa.Reg.name dropped))
        pkg target label;
    ]
  in
  let last = [ List.nth regs (List.length regs - 1) ] in
  Alcotest.(check (list string)) "one register" (expected last) (drop last);
  Alcotest.(check (list string)) "every register" (expected regs) (drop regs)

let test_verifier_rejects_missing_launch_patch () =
  let img, r = Lazy.force rewrite_fixture in
  let e = r.Driver.emitted in
  match e.Emit.launch_patches with
  | [] -> Alcotest.fail "fixture emitted no launch patches"
  | (orig, _) :: rest ->
    let broken =
      {
        e with
        Emit.launch_patches = rest;
        Emit.image = Image.patch e.Emit.image [ (orig, Image.fetch img orig) ];
      }
    in
    let report = Verify.check ~original:img broken in
    Alcotest.(check bool) "rejected" false (Verify.ok report)

(* --- degradation ladder --- *)

let gzip_image =
  lazy
    (let w = Option.get (Registry.find ~bench:"164.gzip" ~input:"A") in
     Program.layout (w.Registry.program ()))

let count_rung rung (r : Driver.rewrite) =
  List.length
    (List.filter (fun (d : Driver.demotion) -> d.Driver.rung = rung)
       r.Driver.demotions)

let test_ladder_drop_package () =
  (* gzip emits packages of varying size, so a budget below the largest
     demotes some packages while keeping the rest. *)
  let img = Lazy.force gzip_image in
  let baseline = Driver.rewrite img in
  let sizes =
    List.map Pkg.size baseline.Driver.packages |> List.sort compare
  in
  let budget = List.nth sizes (List.length sizes - 1) - 1 in
  let config =
    Config.with_fault (Plan.v ~max_package_instrs:budget "budget") Config.default
  in
  let r = Driver.rewrite ~config img in
  Alcotest.(check bool) "dropped some" true (count_rung Driver.Drop_package r > 0);
  Alcotest.(check bool) "kept some" true (List.length r.Driver.packages > 0);
  Alcotest.(check bool) "still verified" true (Verify.ok r.Driver.verification);
  let o = Emulator.run_backend (Driver.rewritten_image r) in
  let b = Emulator.run_backend img in
  Alcotest.(check int) "still equivalent" b.Emulator.checksum o.Emulator.checksum

let test_ladder_drop_region () =
  let img = Program.layout (Progs.two_phase ~iters_per_phase:3000 ~repeats:3) in
  let config =
    Config.with_fault (Plan.v ~max_package_instrs:1 "collapse") Config.default
  in
  let r = Driver.rewrite ~config img in
  Alcotest.(check int) "nothing survives" 0 (List.length r.Driver.packages);
  Alcotest.(check bool) "regions demoted" true (count_rung Driver.Drop_region r > 0);
  List.iter
    (fun (d : Driver.demotion) ->
      Alcotest.(check string)
        (Format.asprintf "%a: stage" Driver.pp_demotion d)
        "build" d.Driver.error.Vacuum.Error.stage)
    r.Driver.demotions;
  Alcotest.(check int) "image unmodified" (Image.size img)
    (Image.size (Driver.rewritten_image r))

let test_ladder_fallback_image () =
  let img = Program.layout (Progs.two_phase ~iters_per_phase:3000 ~repeats:3) in
  let config =
    Config.with_fault (Plan.v ~max_expansion_pct:0. "exhausted") Config.default
  in
  let r = Driver.rewrite ~config img in
  Alcotest.(check int) "fallback taken" 1 (count_rung Driver.Fallback_image r);
  Alcotest.(check int) "no package instructions" 0
    r.Driver.emitted.Emit.package_instructions;
  let o = Emulator.run_backend (Driver.rewritten_image r) in
  Alcotest.(check int) "runs as the original" 0
    (compare o.Emulator.checksum (Emulator.run_backend img).Emulator.checksum)

let test_verifier_rejection () =
  (* Packages whose exit blocks lost their dummy consumers reach
     emission intact; the verifier rejects them and each drop names
     the package's violation, not only that it was rejected. *)
  let img, r = Lazy.force rewrite_fixture in
  let strip (p : Pkg.t) =
    {
      p with
      Pkg.blocks =
        Array.map
          (fun (b : Pkg.block) -> if b.Pkg.is_exit then { b with Pkg.live_out = 0 } else b)
          p.Pkg.blocks;
    }
  in
  let a =
    Driver.assemble ~original:img (List.map strip r.Driver.packages)
  in
  Alcotest.(check bool) "drops taken" true (a.Driver.drops <> []);
  List.iter
    (fun (d : Driver.demotion) ->
      let e = d.Driver.error in
      let shown = Format.asprintf "%a" Driver.pp_demotion d in
      Alcotest.(check string) (shown ^ ": stage") "verify" e.Vacuum.Error.stage;
      Alcotest.(check bool) (shown ^ ": names a side exit") true
        (Option.is_some (Vp_util.Io.find_sub e.Vacuum.Error.what "side exit")))
    a.Driver.drops;
  Alcotest.(check bool)
    (Format.asprintf "assembled image sound: %a" Verify.pp_report a.Driver.checks)
    true (Verify.ok a.Driver.checks)

(* --- truncation warning + counters --- *)

let test_truncation_surfaces () =
  let img = Program.layout (Progs.two_phase ~iters_per_phase:5_000 ~repeats:4) in
  let metrics = Vp_metrics.create () in
  let config = Config.v ~metrics ~fuel:2_000 () in
  let p = Driver.profile ~config img in
  Alcotest.(check bool) "truncated" true p.Driver.truncated;
  Alcotest.(check bool) "structured warning" true
    (List.exists
       (fun (w : Vacuum.Error.t) -> w.Vacuum.Error.stage = "profile")
       p.Driver.warnings);
  Alcotest.(check int) "counter bumped" 1
    (Vp_metrics.Counter.value metrics "profile.truncated")

let test_fault_counters () =
  let img = Program.layout (Progs.two_phase ~iters_per_phase:3000 ~repeats:3) in
  let metrics = Vp_metrics.create () in
  let config =
    Config.v ~metrics ~fault:(Plan.v ~max_package_instrs:1 "collapse") ()
  in
  let (_ : Driver.rewrite) = Driver.rewrite ~config img in
  Alcotest.(check bool) "drop_package counted" true
    (Vp_metrics.Counter.value metrics "demote.drop-package" > 0);
  Alcotest.(check bool) "drop_region counted" true
    (Vp_metrics.Counter.value metrics "demote.drop-region" > 0)

(* --- chaos matrix --- *)

let test_chaos_matrix_oracle () =
  let img = Lazy.force gzip_image in
  let result = Chaos.matrix ~seeds:2 img in
  Alcotest.(check int) "all cells present"
    (2 * List.length Plan.presets)
    (List.length result.Chaos.cells);
  Alcotest.(check bool)
    (Printf.sprintf "every cell equivalent and verified\n%s"
       (Chaos.table result))
    true (Chaos.failures result = []);
  (* The matrix exercises every rung of the demotion ladder. *)
  let total f = List.fold_left (fun a c -> a + f c) 0 result.Chaos.cells in
  Alcotest.(check bool) "drop-package exercised" true
    (total (fun c -> c.Chaos.drop_package) > 0);
  Alcotest.(check bool) "drop-region exercised" true
    (total (fun c -> c.Chaos.drop_region) > 0);
  Alcotest.(check bool) "fallback exercised" true
    (total (fun c -> c.Chaos.fallback_image) > 0);
  (* Coverage degrades monotonically to zero, never to a crash: the
     clean plan's coverage bounds every faulted plan's. *)
  let clean_cov =
    List.filter_map
      (fun c ->
        if c.Chaos.plan.Plan.name = "clean" then Some c.Chaos.coverage_pct
        else None)
      result.Chaos.cells
    |> List.fold_left max 0.
  in
  List.iter
    (fun c ->
      Alcotest.(check bool)
        (Printf.sprintf "%s coverage %.1f within clean %.1f + slack"
           c.Chaos.plan.Plan.name c.Chaos.coverage_pct clean_cov)
        true
        (c.Chaos.coverage_pct <= clean_cov +. 5.))
    result.Chaos.cells

let test_chaos_jobs_deterministic () =
  let img = Lazy.force gzip_image in
  let t1 = Chaos.table (Chaos.matrix ~seeds:2 ~jobs:1 img) in
  let t4 = Chaos.table (Chaos.matrix ~seeds:2 ~jobs:4 img) in
  Alcotest.(check string) "byte-identical 1 vs 4 jobs" t1 t4

(* --- fault hooks are free when disabled --- *)

let minor_words_during f =
  let before = Gc.minor_words () in
  f ();
  Gc.minor_words () -. before

let test_profile_allocation_flat_without_fault () =
  let img =
    Program.layout (Progs.two_phase ~iters_per_phase:100_000 ~repeats:2)
  in
  (* Profiling allocates for telemetry and snapshot records, so it is
     not flat in run length by itself.  The pin here is that the fault
     layer adds nothing that scales with retirements: the growth from
     a 10k-instruction run to a 100k one must be the same whether the
     fault machinery is absent or present-but-clean.  A closure or box
     per retirement in the disabled hook would show up as tens of
     thousands of extra words in the delta. *)
  let grown config_of_fuel =
    (* Warm the decode memo, state arena and detector tables. *)
    ignore (Driver.profile ~config:(config_of_fuel 1_000) img);
    let short =
      minor_words_during (fun () ->
          ignore (Driver.profile ~config:(config_of_fuel 10_000) img))
    in
    let long =
      minor_words_during (fun () ->
          ignore (Driver.profile ~config:(config_of_fuel 100_000) img))
    in
    long -. short
  in
  let without = grown (fun fuel -> Config.v ~fuel ()) in
  let clean = grown (fun fuel -> Config.v ~fuel ~fault:Plan.clean ()) in
  Alcotest.(check bool)
    (Printf.sprintf "disabled hooks free (growth %.0f without, %.0f clean)"
       without clean)
    true
    (Float.abs (clean -. without) < 10_000.)

let () =
  Alcotest.run "vp_fault"
    [
      ( "rng streams",
        [
          Alcotest.test_case "keyed deterministic" `Quick
            test_stream_keyed_deterministic;
          Alcotest.test_case "schedule independent" `Quick
            test_stream_schedule_independent;
          Alcotest.test_case "seed non-negative" `Quick
            test_stream_seed_nonnegative;
        ] );
      ( "inject",
        [
          Alcotest.test_case "clean is identity" `Quick
            test_inject_clean_is_identity;
          Alcotest.test_case "deterministic" `Quick test_inject_deterministic;
          Alcotest.test_case "saturate bounds" `Quick test_inject_saturate_bounds;
          Alcotest.test_case "truncate" `Quick test_inject_truncate;
          Alcotest.test_case "duplicate and alias" `Quick
            test_inject_duplicate_and_alias;
        ] );
      ( "verifier",
        [
          Alcotest.test_case "accepts pipeline output" `Quick
            test_verifier_accepts_pipeline_output;
          Alcotest.test_case "rejects unresolved label" `Quick
            test_verifier_rejects_unresolved_label;
          Alcotest.test_case "rejects tampered original" `Quick
            test_verifier_rejects_tampered_original_code;
          Alcotest.test_case "rejects dropped live-out" `Quick
            test_verifier_rejects_dropped_live_out;
          Alcotest.test_case "liveness message" `Quick
            test_verifier_liveness_message;
          Alcotest.test_case "rejects missing launch patch" `Quick
            test_verifier_rejects_missing_launch_patch;
        ] );
      ( "degradation",
        [
          Alcotest.test_case "drop package" `Quick test_ladder_drop_package;
          Alcotest.test_case "drop region" `Quick test_ladder_drop_region;
          Alcotest.test_case "fallback image" `Quick test_ladder_fallback_image;
          Alcotest.test_case "verifier rejection" `Quick test_verifier_rejection;
          Alcotest.test_case "truncation surfaces" `Quick test_truncation_surfaces;
          Alcotest.test_case "fault counters" `Quick test_fault_counters;
        ] );
      ( "chaos",
        [
          Alcotest.test_case "matrix oracle" `Slow test_chaos_matrix_oracle;
          Alcotest.test_case "jobs deterministic" `Slow
            test_chaos_jobs_deterministic;
        ] );
      ( "hooks free when disabled",
        [
          Alcotest.test_case "profile allocation flat" `Quick
            test_profile_allocation_flat_without_fault;
        ] );
    ]
