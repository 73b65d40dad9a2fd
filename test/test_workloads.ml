(* Tests for vp_workloads: every Table 1 program builds, validates,
   runs deterministically and shows phased behaviour. *)

module Registry = Vp_workloads.Registry
module Program = Vp_prog.Program
module Image = Vp_prog.Image
module Emulator = Vp_exec.Emulator
module Cfg = Vp_cfg.Cfg
module Detector = Vp_hsd.Detector

let test_registry_inventory () =
  Alcotest.(check bool) "at least 12 benches" true
    (List.length Registry.benches >= 12);
  Alcotest.(check bool) "at least 19 rows" true (List.length Registry.all >= 19);
  let names = List.map Registry.name Registry.all in
  Alcotest.(check int) "names unique" (List.length names)
    (List.length (List.sort_uniq compare names));
  match Registry.find ~bench:"134.perl" ~input:"A" with
  | Some _ -> ()
  | None -> Alcotest.fail "perl/A missing"

let test_all_images_validate () =
  List.iter
    (fun w ->
      let img = Program.layout (w.Registry.program ()) in
      match Image.validate img with
      | Ok () -> ()
      | Error e -> Alcotest.failf "%s: %s" (Registry.name w) e)
    Registry.all

let test_all_have_cold_ballast () =
  List.iter
    (fun w ->
      let img = Program.layout (w.Registry.program ()) in
      let names = List.map (fun (s : Image.sym) -> s.Image.name) (Image.functions img) in
      Alcotest.(check bool)
        (Registry.name w ^ " has ballast")
        true
        (List.mem "ballast_0" names))
    Registry.all

let test_callgraphs_rooted_at_main () =
  List.iter
    (fun w ->
      let img = Program.layout (w.Registry.program ()) in
      match Image.find_sym img "main" with
      | None -> Alcotest.failf "%s: main missing" (Registry.name w)
      | Some main ->
        Alcotest.(check bool)
          (Registry.name w ^ " main calls something")
          true
          (Cfg.call_sites (Cfg.recover img main) <> []))
    Registry.all

(* Running all 16 full workloads is minutes of work; take the smaller
   input of each multi-input bench and cap the rest by fuel. *)
let quick_run w =
  Emulator.run_backend ~fuel:50_000_000 (Program.layout (w.Registry.program ()))

let test_small_inputs_halt () =
  List.iter
    (fun (bench, input) ->
      match Registry.find ~bench ~input with
      | Some w ->
        let o = quick_run w in
        Alcotest.(check bool) (Registry.name w ^ " halts") true o.Emulator.halted;
        Alcotest.(check bool)
          (Registry.name w ^ " does real work")
          true
          (o.Emulator.instructions > 100_000)
      | None -> Alcotest.failf "%s/%s missing" bench input)
    [ ("130.li", "B"); ("134.perl", "B"); ("132.ijpeg", "B"); ("255.vortex", "B") ]

let test_determinism () =
  let w = Option.get (Registry.find ~bench:"134.perl" ~input:"B") in
  let a = quick_run w in
  let b = quick_run w in
  Alcotest.(check int) "same checksum" a.Emulator.checksum b.Emulator.checksum;
  Alcotest.(check int) "same instructions" a.Emulator.instructions b.Emulator.instructions

let test_phased_behaviour () =
  (* The flagship phase workloads must produce at least two distinct
     phases under the default (full-size) detector. *)
  List.iter
    (fun (bench, input, min_phases) ->
      let w = Option.get (Registry.find ~bench ~input) in
      let img = Program.layout (w.Registry.program ()) in
      let d = Detector.create () in
      let _ =
        Emulator.run_backend ~on_branch:(fun ~pc ~taken -> Detector.on_branch d ~pc ~taken) img
      in
      let log = Vp_phase.Phase_log.build (Detector.snapshots d) in
      Alcotest.(check bool)
        (Printf.sprintf "%s/%s has >= %d phases (got %d)" bench input min_phases
           (Vp_phase.Phase_log.unique_count log))
        true
        (Vp_phase.Phase_log.unique_count log >= min_phases))
    [ ("134.perl", "B", 2); ("132.ijpeg", "B", 3) ]

let test_ballast_is_cold () =
  (* No detected hot-spot branch may live in ballast code. *)
  let w = Option.get (Registry.find ~bench:"134.perl" ~input:"B") in
  let img = Program.layout (w.Registry.program ()) in
  let d = Detector.create () in
  let _ =
    Emulator.run_backend ~on_branch:(fun ~pc ~taken -> Detector.on_branch d ~pc ~taken) img
  in
  List.iter
    (fun snap ->
      List.iter
        (fun pc ->
          match Image.sym_at img pc with
          | Some s ->
            Alcotest.(check bool)
              (Printf.sprintf "branch 0x%x not in %s" pc s.Image.name)
              false
              (String.length s.Image.name >= 7 && String.sub s.Image.name 0 7 = "ballast")
          | None -> Alcotest.fail "snapshot branch outside image")
        (Vp_hsd.Snapshot.branch_pcs snap))
    (Detector.snapshots d)

let () =
  Alcotest.run "vp_workloads"
    [
      ( "registry",
        [
          Alcotest.test_case "inventory" `Quick test_registry_inventory;
          Alcotest.test_case "images validate" `Quick test_all_images_validate;
          Alcotest.test_case "cold ballast present" `Quick test_all_have_cold_ballast;
          Alcotest.test_case "callgraphs" `Quick test_callgraphs_rooted_at_main;
        ] );
      ( "execution",
        [
          Alcotest.test_case "small inputs halt" `Slow test_small_inputs_halt;
          Alcotest.test_case "determinism" `Slow test_determinism;
          Alcotest.test_case "phased behaviour" `Slow test_phased_behaviour;
          Alcotest.test_case "ballast is cold" `Slow test_ballast_is_cold;
        ] );
    ]
