(* Quickstart: build a small two-phase program with the Builder DSL,
   run the whole Vacuum Packing pipeline on it, and check that the
   rewritten binary computes the same answer faster.

     dune exec examples/quickstart.exe *)

module B = Vp_prog.Builder
module Op = Vp_isa.Op
module Program = Vp_prog.Program
module Emulator = Vp_exec.Emulator

(* A program that spends a while summing, then a while multiplying —
   two phases the hardware detector can tell apart. *)
let program () =
  let b = B.create () in
  B.func b "sum_phase" ~nargs:1 (fun fb args ->
      let acc = B.vreg fb in
      let i = B.vreg fb in
      B.mov fb acc args.(0);
      B.for_ fb i ~from:(B.K 0) ~below:(B.K 4000) (fun () ->
          B.alu fb Op.Add acc acc (B.V i);
          B.alu fb Op.And acc acc (B.K 0xFFFFF));
      B.ret fb (Some acc));
  B.func b "scale_phase" ~nargs:1 (fun fb args ->
      let acc = B.vreg fb in
      let i = B.vreg fb in
      B.mov fb acc args.(0);
      B.for_ fb i ~from:(B.K 0) ~below:(B.K 4000) (fun () ->
          B.alu fb Op.Mul acc acc (B.K 3);
          B.alu fb Op.And acc acc (B.K 0xFFFF));
      B.ret fb (Some acc));
  B.func b "main" ~nargs:0 (fun fb _ ->
      let acc = B.vreg fb in
      let round = B.vreg fb in
      B.li fb acc 1;
      B.for_ fb round ~from:(B.K 0) ~below:(B.K 4) (fun () ->
          let s = B.call fb "sum_phase" [ acc ] in
          B.mov fb acc s;
          let m = B.call fb "scale_phase" [ acc ] in
          B.mov fb acc m);
      B.ret fb (Some acc);
      B.halt fb);
  B.program b ~entry:"main"

let () =
  let image = Program.layout (program ()) in
  Printf.printf "original binary: %d instructions\n" (Vp_prog.Image.size image);

  (* The tiny detector configuration suits a program this small; real
     workloads use the default Table 2 configuration. *)
  let config = Vacuum.Config.with_detector Vp_hsd.Config.tiny Vacuum.Config.default in

  (* 1. Profile: one run under the Hot Spot Detector. *)
  let profile = Vacuum.Driver.profile ~config image in
  Printf.printf "profiled %d instructions, %d hot-spot recordings, %d unique phases\n"
    profile.Vacuum.Driver.outcome.Emulator.instructions
    (List.length profile.Vacuum.Driver.snapshots)
    (Vp_phase.Phase_log.unique_count profile.Vacuum.Driver.log);

  (* 2. Rewrite: identify regions, extract and link packages, emit. *)
  let rewrite = Vacuum.Driver.rewrite_of_profile ~config profile in
  List.iter
    (fun p ->
      Printf.printf "  package %-24s root=%-12s %3d blocks, %d entries\n"
        p.Vp_package.Pkg.id p.Vp_package.Pkg.root
        (Array.length p.Vp_package.Pkg.blocks)
        (List.length p.Vp_package.Pkg.entries))
    rewrite.Vacuum.Driver.packages;

  (* 3. Evaluate: coverage, equivalence, speedup. *)
  let coverage = Vacuum.Coverage.measure ~config rewrite in
  Printf.printf "coverage: %.1f%% of execution now runs in packages\n"
    coverage.Vacuum.Coverage.coverage_pct;
  Printf.printf "equivalent to original: %b (result %d)\n"
    coverage.Vacuum.Coverage.equivalent
    coverage.Vacuum.Coverage.outcome.Emulator.result;

  let speedup = Vacuum.Speedup.measure ~config rewrite in
  Printf.printf "cycles: %d -> %d  (speedup %.3fx)\n"
    speedup.Vacuum.Speedup.baseline.Vp_cpu.Pipeline.cycles
    speedup.Vacuum.Speedup.optimized.Vp_cpu.Pipeline.cycles
    speedup.Vacuum.Speedup.speedup
