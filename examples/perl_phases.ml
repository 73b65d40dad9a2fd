(* The paper's Section 3.3.4 scenario on the 134.perl analogue: a
   command-interpreter loop serves as the root function of several
   phase packages sharing one launch point, and package linking lets
   execution migrate to the package matching the current phase.

     dune exec examples/perl_phases.exe *)

module Registry = Vp_workloads.Registry
module Program = Vp_prog.Program
module Phase_log = Vp_phase.Phase_log
module Linking = Vp_package.Linking
module Pkg = Vp_package.Pkg

let () =
  let w = Option.get (Registry.find ~bench:"134.perl" ~input:"B") in
  let image = Program.layout (w.Registry.program ()) in

  let profile = Vacuum.Driver.profile image in
  Printf.printf "=== phase schedule (dynamic branch intervals) ===\n";
  List.iter
    (fun (start, stop, phase) ->
      Printf.printf "  [%8d, %8d)  phase %d\n" start stop phase)
    (Phase_log.timeline profile.Vacuum.Driver.log);
  Printf.printf "%d raw recordings collapsed into %d unique phases\n\n"
    (Phase_log.raw_count profile.Vacuum.Driver.log)
    (Phase_log.unique_count profile.Vacuum.Driver.log);

  let rewrite = Vacuum.Driver.rewrite_of_profile profile in

  Printf.printf "=== packages and their roots ===\n";
  List.iter
    (fun p ->
      Printf.printf "  %-28s root=%-12s %2d branch sites, %d entries\n" p.Pkg.id
        p.Pkg.root (Pkg.branch_count p)
        (List.length p.Pkg.entries))
    rewrite.Vacuum.Driver.packages;

  Printf.printf "\n=== linking groups (shared launch points) ===\n";
  List.iter
    (fun (g : Linking.group) ->
      let id k = (List.nth g.Linking.ordered k).Pkg.id in
      Printf.printf "  root %-12s rank %.3f ordering [%s]\n" g.Linking.root
        g.Linking.rank
        (String.concat " -> "
           (List.map (fun p -> p.Pkg.id) g.Linking.ordered));
      List.iter
        (fun (l : Linking.link) ->
          Printf.printf "    link: %s branch@0x%x (%s-biased) --> %s\n"
            (id l.Linking.from_pkg) l.Linking.site.Pkg.orig_pc
            (match l.Linking.site.Pkg.bias with
            | Pkg.T -> "taken"
            | Pkg.F -> "fall-through"
            | Pkg.U -> "un"
            | Pkg.Neither -> "dead")
            (id l.Linking.to_pkg))
        g.Linking.links)
    rewrite.Vacuum.Driver.emitted.Vp_package.Emit.groups;

  (* Coverage with and without linking: the paper's Figure 8 bars. *)
  Printf.printf "\n=== coverage, with and without linking ===\n";
  List.iter
    (fun linking ->
      let config = Vacuum.Config.experiment ~inference:true ~linking in
      let r = Vacuum.Driver.rewrite_of_profile ~config profile in
      let c = Vacuum.Coverage.measure ~config r in
      Printf.printf "  linking %-3s -> %.1f%% of execution in packages (equivalent: %b)\n"
        (if linking then "on" else "off")
        c.Vacuum.Coverage.coverage_pct c.Vacuum.Coverage.equivalent)
    [ false; true ]
