(* Differential tests: execution over the decoded form (the compiled
   backend's closures) against the boxed reference interpreter.  Every
   registry A-input workload runs through both the [Reference] backend
   (the original instruction-at-a-time interpreter, kept as the
   executable specification) and the default [Compiled] one with only a
   branch observer attached — the branch feed [Emulator] derives from
   the compiled code's retirement runs, no per-instruction expansion;
   the two must agree on every outcome field, on the hot-spot
   detector's snapshot stream, and on the whole-run aggregate branch
   profile. *)

module Registry = Vp_workloads.Registry
module Program = Vp_prog.Program
module Emulator = Vp_exec.Emulator
module Detector = Vp_hsd.Detector
module Snapshot = Vp_hsd.Snapshot

let a_workloads = List.filter (fun w -> w.Registry.input = "A") Registry.all

(* Both cores get the same fuel; a truncated run is still a valid
   differential as long as both truncate at the same instruction. *)
let fuel = 2_000_000

(* One instrumented run: detector snapshots plus the classic
   hashtable aggregate, built the same way for both cores. *)
let observe runner image =
  let detector = Detector.create ~config:Vp_hsd.Config.default () in
  let agg : (int, int * int) Hashtbl.t = Hashtbl.create 256 in
  let on_branch ~pc ~taken =
    Detector.on_branch detector ~pc ~taken;
    let e, t = Option.value ~default:(0, 0) (Hashtbl.find_opt agg pc) in
    Hashtbl.replace agg pc (e + 1, if taken then t + 1 else t)
  in
  let outcome = runner ~fuel ~on_branch image in
  (outcome, Detector.snapshots detector, agg)

let sorted_bindings tbl =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let check_outcome name (a : Emulator.outcome) (b : Emulator.outcome) =
  Alcotest.(check int) (name ^ ": instructions") a.Emulator.instructions
    b.Emulator.instructions;
  Alcotest.(check int)
    (name ^ ": package instructions")
    a.Emulator.package_instructions b.Emulator.package_instructions;
  Alcotest.(check int) (name ^ ": cond branches") a.Emulator.cond_branches
    b.Emulator.cond_branches;
  Alcotest.(check bool) (name ^ ": halted") a.Emulator.halted b.Emulator.halted;
  Alcotest.(check int) (name ^ ": checksum") a.Emulator.checksum
    b.Emulator.checksum;
  Alcotest.(check int) (name ^ ": result") a.Emulator.result b.Emulator.result;
  Alcotest.(check int) (name ^ ": final pc") a.Emulator.final_pc
    b.Emulator.final_pc

let test_workload w () =
  let name = Registry.name w in
  let image = Program.layout (w.Registry.program ()) in
  let ref_outcome, ref_snaps, ref_agg =
    observe
      (fun ~fuel ~on_branch image ->
        Emulator.run_backend ~backend:Emulator.Reference ~fuel ~on_branch image)
      image
  in
  let dec_outcome, dec_snaps, dec_agg =
    observe
      (fun ~fuel ~on_branch image -> Emulator.run_backend ~fuel ~on_branch image)
      image
  in
  check_outcome name ref_outcome dec_outcome;
  Alcotest.(check int)
    (name ^ ": snapshot count")
    (List.length ref_snaps) (List.length dec_snaps);
  Alcotest.(check bool)
    (name ^ ": snapshot streams identical")
    true
    (ref_snaps = dec_snaps);
  Alcotest.(check bool)
    (name ^ ": aggregate profiles identical")
    true
    (sorted_bindings ref_agg = sorted_bindings dec_agg);
  (* The profiler's pc-indexed Branch_profile agrees with the classic
     hashtable aggregate on the same run. *)
  let bp =
    (Vacuum.Driver.profile
       ~config:(Vacuum.Config.with_fuel fuel Vacuum.Config.default)
       image)
      .Vacuum.Driver.aggregate
  in
  Alcotest.(check bool)
    (name ^ ": Branch_profile matches hashtable")
    true
    (Vp_exec.Branch_profile.bindings bp = sorted_bindings ref_agg);
  Alcotest.(check int)
    (name ^ ": Branch_profile total")
    ref_outcome.Emulator.cond_branches
    (Vp_exec.Branch_profile.total_executed bp)

(* ------------------------------------------------------------------ *)
(* Backend matrix: reference vs compiled through the uniform
   [run_backend] entry point.  Each backend runs with the
   full observer set attached — detector + aggregate on the branch
   stream, and an order-sensitive FNV digest of every retirement
   (pc, taken, next_pc, mem_addr) — so the comparison covers outcomes,
   snapshot streams, aggregate profiles and the whole observation
   sequence, not just the final state. *)

let stream_digest_ref () =
  (* FNV-1a folded into OCaml's 63-bit native int (basis truncated). *)
  let h = ref 0x3bf29ce484222325 in
  let mix x = h := (!h lxor x) * 0x100000001b3 in
  ( h,
    (fun ~pc ~taken ->
      mix (-2);
      mix pc;
      mix (if taken then 1 else 0)),
    fun ~pc ~taken ~next_pc ~mem_addr ->
      mix pc;
      mix (if taken then 1 else 0);
      mix next_pc;
      mix mem_addr )

let observe_backend backend image =
  let detector = Detector.create ~config:Vp_hsd.Config.default () in
  let agg : (int, int * int) Hashtbl.t = Hashtbl.create 256 in
  let digest, branch_digest, on_retire = stream_digest_ref () in
  let on_branch ~pc ~taken =
    Detector.on_branch detector ~pc ~taken;
    let e, t = Option.value ~default:(0, 0) (Hashtbl.find_opt agg pc) in
    Hashtbl.replace agg pc (e + 1, if taken then t + 1 else t);
    branch_digest ~pc ~taken
  in
  let outcome = Emulator.run_backend ~backend ~fuel ~on_branch ~on_retire image in
  (outcome, Detector.snapshots detector, agg, !digest)

let test_backend_matrix w () =
  let name = Registry.name w in
  let image = Program.layout (w.Registry.program ()) in
  let runs =
    List.map (fun b -> (b, observe_backend b image)) Emulator.all_backends
  in
  let _, (ref_outcome, ref_snaps, ref_agg, ref_digest) = List.hd runs in
  List.iter
    (fun (b, (outcome, snaps, agg, digest)) ->
      let tag = Printf.sprintf "%s [%s]" name (Emulator.backend_name b) in
      check_outcome tag ref_outcome outcome;
      Alcotest.(check bool)
        (tag ^ ": snapshot streams identical")
        true (ref_snaps = snaps);
      Alcotest.(check bool)
        (tag ^ ": aggregate profiles identical")
        true
        (sorted_bindings ref_agg = sorted_bindings agg);
      Alcotest.(check int) (tag ^ ": observation-stream digest") ref_digest
        digest)
    (List.tl runs)

(* The fleet consensus path — profile, emulated per-machine runs under
   a clean fault plan, sharded aggregation, consensus rewrite — must be
   invariant over the functional backend end to end. *)
let test_fleet_consensus_backends () =
  let w = Option.get (Registry.find ~bench:"134.perl" ~input:"A") in
  let image = Program.layout (w.Registry.program ()) in
  let consensus backend =
    let config =
      Vacuum.Config.with_backend backend
        (Vacuum.Config.with_fault Vp_fault.Plan.clean Vacuum.Config.default)
    in
    let base = Vacuum.Driver.profile ~config image in
    let wire = Vacuum.Fleet.emulate_runs ~config ~seed:7 ~runs:16 base in
    let fleet = Vacuum.Fleet.aggregate ~config ~base wire in
    let r =
      Vacuum.Driver.rewrite_of_profile ~config
        (Vacuum.Fleet.profile_of_fleet ~config ~base fleet)
    in
    ( base.Vacuum.Driver.outcome.Emulator.checksum,
      fleet.Vacuum.Fleet.digest,
      fleet.Vacuum.Fleet.stats.Vp_aggregate.Shard.snapshots,
      List.length r.Vacuum.Driver.packages,
      r.Vacuum.Driver.emitted.Vp_package.Emit.package_instructions )
  in
  Alcotest.(check bool) "fleet consensus identical on compiled backend" true
    (consensus Emulator.Compiled = consensus Emulator.Reference)

(* The full driver path (compiled core + pc-indexed profile counters)
   against a reference-interpreter reconstruction of the same
   aggregate, on one real workload end to end. *)
let test_driver_profile_matches_reference () =
  let w = Option.get (Registry.find ~bench:"134.perl" ~input:"A") in
  let image = Program.layout (w.Registry.program ()) in
  let p = Vacuum.Driver.profile image in
  let agg : (int, int * int) Hashtbl.t = Hashtbl.create 256 in
  let on_branch ~pc ~taken =
    let e, t = Option.value ~default:(0, 0) (Hashtbl.find_opt agg pc) in
    Hashtbl.replace agg pc (e + 1, if taken then t + 1 else t)
  in
  let outcome = Emulator.run_backend ~backend:Emulator.Reference ~on_branch image in
  check_outcome "driver profile" outcome p.Vacuum.Driver.outcome;
  Alcotest.(check bool)
    "driver aggregate matches reference interpreter" true
    (sorted_bindings agg = Vp_exec.Branch_profile.bindings p.Vacuum.Driver.aggregate)

(* Telemetry consistency: the per-interval residency series of the
   rewritten run must integrate to exactly the coverage numbers of
   Figure 8 — the interval sampler and the emulator's own
   package-instruction counter are two independent observers of the
   same run. *)
let test_residency_consistency w () =
  let name = Registry.name w in
  let config =
    Vacuum.Config.with_metrics
      (Vp_metrics.create ~interval:Vp_telemetry.default_interval ())
      (Vacuum.Config.with_fuel fuel Vacuum.Config.default)
  in
  let image = Program.layout (w.Registry.program ()) in
  let r = Vacuum.Driver.rewrite ~config image in
  let c = Vacuum.Coverage.measure ~config r in
  let res = c.Vacuum.Coverage.residency in
  let sum series_name =
    match Vp_telemetry.Series.find res series_name with
    | Some v -> Array.fold_left ( + ) 0 v
    | None -> Alcotest.failf "%s: missing series %s" name series_name
  in
  Alcotest.(check int)
    (name ^ ": total residency = retired instructions")
    c.Vacuum.Coverage.outcome.Emulator.instructions (sum "run.instructions");
  let pkg_sum =
    List.fold_left
      (fun acc s ->
        if s = "run.instructions" || s = "run.orig.instructions" then acc
        else acc + sum s)
      0
      (Vp_telemetry.Series.names res)
  in
  Alcotest.(check int)
    (name ^ ": package residency = Figure 8 numerator")
    c.Vacuum.Coverage.outcome.Emulator.package_instructions pkg_sum;
  Alcotest.(check int)
    (name ^ ": lanes partition the run")
    c.Vacuum.Coverage.outcome.Emulator.instructions
    (pkg_sum + sum "run.orig.instructions")

let () =
  Alcotest.run "vp_differential"
    [
      ( "decoded vs reference",
        List.map
          (fun w ->
            Alcotest.test_case (Registry.name w) `Quick (test_workload w))
          a_workloads );
      ( "backend matrix",
        List.map
          (fun w ->
            Alcotest.test_case (Registry.name w) `Quick (test_backend_matrix w))
          a_workloads );
      ( "driver",
        [
          Alcotest.test_case "profile matches reference" `Quick
            test_driver_profile_matches_reference;
          Alcotest.test_case "fleet consensus across backends" `Quick
            test_fleet_consensus_backends;
        ] );
      ( "residency vs coverage",
        List.map
          (fun w ->
            Alcotest.test_case (Registry.name w) `Quick
              (test_residency_consistency w))
          a_workloads );
    ]
