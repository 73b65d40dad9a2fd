(* Watch the Hot Spot Detector hardware at work — through the runtime
   telemetry layer.  A telemetry-enabled profiling run samples the
   detector every interval (HDC value, BBB occupancy, candidate count)
   and stamps every detection/recording/re-arm event with its
   retired-instruction index; this example renders those series as
   sparklines, lists the first events, and then reruns the detector
   under the hardware snapshot history of [4] to show the recording
   traffic it saves.

     dune exec examples/hotspot_monitor.exe *)

module Registry = Vp_workloads.Registry
module Program = Vp_prog.Program
module Image = Vp_prog.Image
module Emulator = Vp_exec.Emulator
module Detector = Vp_hsd.Detector
module Snapshot = Vp_hsd.Snapshot

let () =
  let w = Option.get (Registry.find ~bench:"mpeg2dec" ~input:"A") in
  let image = Program.layout (w.Registry.program ()) in

  (* One profiling run with timelines on — a metrics registry with a
     sampling interval: the driver owns the timeline and installs the
     detector hooks for us. *)
  let config =
    Vacuum.Config.with_metrics
      (Vp_metrics.create ~interval:10_000 ())
      Vacuum.Config.default
  in
  let profile = Vacuum.Driver.profile ~config image in
  let tl = profile.Vacuum.Driver.timeline in
  let outcome = profile.Vacuum.Driver.outcome in

  Printf.printf "instructions retired: %d (%d intervals of %d)\n"
    outcome.Emulator.instructions (Vp_telemetry.intervals tl)
    (Vp_telemetry.interval_length tl);
  Printf.printf "raw detections:       %d\n" profile.Vacuum.Driver.detections;
  Printf.printf "snapshots recorded:   %d\n\n"
    (List.length profile.Vacuum.Driver.snapshots);

  Printf.printf "=== detector state per interval ===\n";
  let bar name =
    let values = Option.value ~default:[||] (Vp_telemetry.Series.find tl name) in
    Printf.printf "%-22s|%s|\n" name (Vp_telemetry.Render.sparkline values)
  in
  bar "profile.hdc";
  bar "profile.bbb_occupancy";
  bar "profile.bbb_candidates";
  bar "profile.branches";

  Printf.printf "\n=== first detector events (at = retired-instruction index) ===\n";
  List.iteri
    (fun i (kind, at, value) ->
      if i < 9 then Printf.printf "  %-8s at instr %9d (value %d)\n" kind at value)
    (Vp_telemetry.Event.all tl);
  List.iter
    (fun kind ->
      Printf.printf "  %-8s %d total\n" kind (Vp_telemetry.Event.count tl ~kind))
    [ "detect"; "record"; "rearm" ];

  Printf.printf "\n=== first snapshot (BBB contents at detection) ===\n";
  (match profile.Vacuum.Driver.snapshots with
  | [] -> print_endline "  (none)"
  | snap :: _ ->
    Printf.printf "hot spot %d, detected at branch %d, extent %d branches:\n"
      snap.Snapshot.id snap.Snapshot.detected_at (Snapshot.extent snap);
    List.iter
      (fun e ->
        let f = Snapshot.taken_fraction e in
        let where =
          match Image.sym_at image e.Snapshot.pc with
          | Some s -> s.Image.name
          | None -> "?"
        in
        Printf.printf "  branch 0x%-5x in %-18s exec %3d taken %3d (%.2f %s)\n"
          e.Snapshot.pc where e.Snapshot.executed e.Snapshot.taken f
          (match Snapshot.bias e with
          | Snapshot.Taken -> "taken-biased"
          | Snapshot.Not_taken -> "fall-biased"
          | Snapshot.Unbiased -> "unbiased"))
      snap.Snapshot.branches);

  (* The BBB enhancement of [4]: a short history of recorded hot spots
     suppresses re-recording of the phase the hardware just saw.  The
     record-event count is exactly the recording traffic. *)
  Printf.printf "\n=== hardware snapshot history (recording traffic) ===\n";
  List.iter
    (fun h ->
      let same = Vp_phase.Similarity.same in
      let d = Detector.create ~history_size:h ~same () in
      let records = ref 0 in
      Detector.set_hooks d ~on_record:(fun ~branches:_ ~id:_ -> incr records);
      let (_ : Emulator.outcome) =
        Emulator.run_backend
          ~on_branch:(fun ~pc ~taken -> Detector.on_branch d ~pc ~taken)
          image
      in
      Printf.printf "  history %d -> %4d recordings (of %d detections)\n" h
        !records (Detector.detections d))
    [ 0; 1; 2; 4 ]
