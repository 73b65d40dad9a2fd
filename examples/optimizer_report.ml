(* What the package optimizer actually does: take the gzip analogue's
   packages, show branch flipping and block re-layout, estimate the
   schedule compaction per block, and time original vs. rewritten
   binaries on the EPIC model under all four paper configurations.

     dune exec examples/optimizer_report.exe *)

module Registry = Vp_workloads.Registry
module Program = Vp_prog.Program
module Pkg = Vp_package.Pkg
module Schedule = Vp_opt.Schedule
module Weights = Vp_opt.Weights
module Pipeline = Vp_cpu.Pipeline

let () =
  let w = Option.get (Registry.find ~bench:"164.gzip" ~input:"A") in
  let image = Program.layout (w.Registry.program ()) in
  let profile = Vacuum.Driver.profile image in
  let rewrite = Vacuum.Driver.rewrite_of_profile profile in

  (* Pick the largest package: gzip's deflate loop nest. *)
  let pkg =
    List.fold_left
      (fun best p ->
        if Array.length p.Pkg.blocks > Array.length best.Pkg.blocks then p else best)
      (List.hd rewrite.Vacuum.Driver.packages)
      rewrite.Vacuum.Driver.packages
  in
  Printf.printf "package %s (%d blocks)\n\n" pkg.Pkg.id (Array.length pkg.Pkg.blocks);

  (* Layout: hottest chain first, exits pushed to the bottom. *)
  let laid_out = Vp_opt.Layout_opt.relayout pkg in
  let weights = Weights.weights (Weights.estimate laid_out) in
  Printf.printf "=== block layout after relayout (hot chains first, exits sink) ===\n";
  Array.iteri
    (fun i j ->
      let b = laid_out.Pkg.blocks.(j) in
      if i < 12 || b.Pkg.is_exit then
        Printf.printf "  %2d. %-32s weight %10.1f%s\n" i b.Pkg.label weights.(j)
          (if b.Pkg.is_exit then "  [exit]" else ""))
    laid_out.Pkg.order;

  (* Scheduling: per-block cycle estimates before/after. *)
  Printf.printf "\n=== local schedule compaction (top blocks) ===\n";
  let interesting =
    List.filter_map
      (fun j ->
        let b = pkg.Pkg.blocks.(j) in
        if List.length b.Pkg.body >= 4 then Some b else None)
      (Array.to_list pkg.Pkg.order)
  in
  List.iteri
    (fun i (b : Pkg.block) ->
      if i < 8 then begin
        let before = Schedule.estimate_cycles b.Pkg.body in
        let after = Schedule.estimate_cycles (Schedule.schedule_body b.Pkg.body) in
        Printf.printf "  %-32s %2d instrs: %2d -> %2d cycles\n" b.Pkg.label
          (List.length b.Pkg.body) before after
      end)
    interesting;

  (* Figure 10 for this workload: all four configurations. *)
  Printf.printf "\n=== speedup on the Table 2 EPIC model ===\n";
  let baseline = Pipeline.simulate image in
  Printf.printf "  original:              %9d cycles (IPC %.2f)\n"
    baseline.Pipeline.cycles baseline.Pipeline.ipc;
  List.iter
    (fun (inference, linking) ->
      let config = Vacuum.Config.experiment ~inference ~linking in
      let r = Vacuum.Driver.rewrite_of_profile ~config profile in
      let optimized = Pipeline.simulate (Vacuum.Driver.rewritten_image r) in
      Printf.printf "  %-22s %9d cycles (IPC %.2f)  speedup %.3fx\n"
        (Vacuum.Config.experiment_name ~inference ~linking)
        optimized.Pipeline.cycles optimized.Pipeline.ipc
        (Pipeline.speedup ~baseline ~optimized))
    [ (false, false); (false, true); (true, false); (true, true) ]
