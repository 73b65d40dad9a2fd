(* The runtime telemetry layer: series/event storage, disabled no-op
   and allocation contracts, the Perfetto export and its validation,
   rendering, the detector/driver/coverage wiring, and byte-identical
   traces across --jobs schedules. *)

module T = Vp_telemetry
module M = Vp_metrics
module Program = Vp_prog.Program
module Emulator = Vp_exec.Emulator
module Gen = Vp_test_support.Gen
module Progs = Vp_test_support.Progs

(* --- series and events --- *)

(* A fresh timeline sampled every [interval] retired instructions. *)
let timeline ?name ?origin ?(interval = T.default_interval) () =
  T.create ?name ?origin (M.create ~interval ())

let test_series_basics () =
  let t = timeline ~interval:100 () in
  Alcotest.(check bool) "enabled" true (T.enabled t);
  Alcotest.(check int) "interval" 100 (T.interval_length t);
  let a = T.Series.register t "a" in
  let a' = T.Series.register t "a" in
  let b = T.Series.register t "b" in
  Alcotest.(check bool) "register idempotent" true (a = a');
  for i = 1 to 600 do
    T.Series.push t a i
  done;
  T.Series.push t b 7;
  Alcotest.(check int) "growth past preallocation" 600 (T.Series.length t a);
  Alcotest.(check int) "independent series" 1 (T.Series.length t b);
  Alcotest.(check int) "intervals = longest series" 600 (T.intervals t);
  let v = T.Series.values t a in
  Alcotest.(check int) "first value" 1 v.(0);
  Alcotest.(check int) "last value" 600 v.(599);
  Alcotest.(check (list string)) "names sorted" [ "a"; "b" ] (T.Series.names t);
  Alcotest.(check bool) "find" true (T.Series.find t "b" = Some [| 7 |]);
  Alcotest.(check bool) "find missing" true (T.Series.find t "c" = None)

let test_event_basics () =
  let t = timeline () in
  T.Event.emit t ~kind:"detect" ~at:10 ~value:1;
  T.Event.emit t ~kind:"record" ~at:10 ~value:0;
  T.Event.emit t ~kind:"detect" ~at:25 ~value:2;
  Alcotest.(check int) "count by kind" 2 (T.Event.count t ~kind:"detect");
  Alcotest.(check bool)
    "emission order" true
    (T.Event.all t
    = [ ("detect", 10, 1); ("record", 10, 0); ("detect", 25, 2) ])

let test_disabled_noop () =
  let t = T.create M.disabled in
  Alcotest.(check bool) "disabled registry = disabled" true (t == T.disabled);
  Alcotest.(check bool)
    "registry without interval = disabled" true
    (T.create (M.create ()) == T.disabled);
  let id = T.Series.register t "ghost" in
  T.Series.push t id 1;
  T.Event.emit t ~kind:"ghost" ~at:0 ~value:0;
  Alcotest.(check int) "no length" 0 (T.Series.length t id);
  Alcotest.(check (list string)) "no names" [] (T.Series.names t);
  Alcotest.(check bool) "no events" true (T.Event.all t = []);
  Alcotest.(check int) "no intervals" 0 (T.intervals t)

let test_disabled_zero_allocation () =
  let t = T.disabled in
  let id = T.Series.register t "x" in
  (* Warm up. *)
  T.Series.push t id 1;
  let before = Gc.minor_words () in
  for i = 0 to 99_999 do
    T.Series.push t id i
  done;
  let words = Gc.minor_words () -. before in
  Alcotest.(check bool)
    (Printf.sprintf "100k disabled pushes allocate nothing (%.0f words)" words)
    true (words < 256.)

let test_bad_interval_rejected () =
  List.iter
    (fun interval ->
      match M.create ~interval () with
      | exception Vp_util.Error.Error _ -> ()
      | _ -> Alcotest.failf "interval %d accepted" interval)
    [ 0; -5 ]

(* --- Perfetto export --- *)

let in_temp name f =
  let path = Filename.temp_file "vp_telemetry" name in
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

let read path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let write path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let lines path = String.split_on_char '\n' (read path)

let contains hay needle = Option.is_some (Vp_util.Io.find_sub hay needle)

(* The [args.value] of every counter sample of track [name] in an
   exported file, in file order. *)
let counter_values path name =
  List.filter_map
    (fun l ->
      match
        Scanf.sscanf l {|{"ph":"C","name":%S,"pid":%_d,"ts":%_d,"args":{"value":%d}}|}
          (fun n v -> (n, v))
      with
      | n, v when n = name -> Some v
      | _ | (exception _) -> None)
    (lines path)

let test_trace_roundtrip () =
  in_temp "trace.json" @@ fun path ->
  let t1 = timeline ~interval:50 () in
  let i1 = T.Series.register t1 "profile.instructions" in
  let a = T.Series.register t1 "profile.hdc" in
  List.iter (T.Series.push t1 i1) [ 50; 50; 20 ];
  List.iter (T.Series.push t1 a) [ 4; 0; 9 ];
  T.Event.emit t1 ~kind:"detect" ~at:77 ~value:1;
  let t2 = timeline ~name:"epoch-1" ~origin:1000 ~interval:50 () in
  let b = T.Series.register t2 "session.instructions" in
  List.iter (T.Series.push t2 b) [ 50; 30 ];
  T.Event.emit t2 ~kind:"activate" ~at:1080 ~value:1;
  (* Disabled timelines merge away silently. *)
  T.write_perfetto ~path [ t1; T.disabled; t2 ];
  (match M.Perfetto.validate_file ~path with
  | Ok n ->
    Alcotest.(check int) "2 processes + 8 counter samples + 2 instants" 12 n
  | Error e -> Alcotest.failf "trace invalid: %s" e);
  let s = read path in
  List.iter
    (fun (what, line) -> Alcotest.(check bool) what true (contains s line))
    [
      ( "a timeline is a process named by its series prefix",
        {|{"ph":"M","pid":1,"tid":0,"name":"process_name","args":{"name":"profile"}}|}
      );
      ( "or by its run label",
        {|{"ph":"M","pid":2,"tid":0,"name":"process_name","args":{"name":"epoch-1"}}|}
      );
      ( "counter ts = retired instructions at the interval's end",
        {|{"ph":"C","name":"profile.hdc","pid":1,"ts":120,"args":{"value":9}}|} );
      ( "the clock starts at the origin",
        {|{"ph":"C","name":"session.instructions","pid":2,"ts":1080,"args":{"value":30}}|}
      );
      ( "an event is an instant at its own stamp",
        {|{"ph":"i","name":"detect","pid":1,"tid":0,"ts":77,"args":{"value":1}}|} );
    ];
  Alcotest.(check (list int))
    "series values in order" [ 4; 0; 9 ] (counter_values path "profile.hdc");
  Alcotest.(check bool) "no wall clock" false (contains s "\"dur\"")

let test_validator_rejects_garbage () =
  in_temp "good.json" @@ fun good ->
  let t = timeline ~interval:10 () in
  let i = T.Series.register t "run.instructions" in
  T.Series.push t i 10;
  T.Event.emit t ~kind:"launch" ~at:3 ~value:1;
  T.write_perfetto ~path:good [ t ];
  let valid = read good in
  let swap ~sub ~by =
    let n = String.length sub in
    let rec go i =
      if String.sub valid i n = sub then
        String.sub valid 0 i ^ by
        ^ String.sub valid (i + n) (String.length valid - i - n)
      else go (i + 1)
    in
    go 0
  in
  List.iter
    (fun (body, why) ->
      in_temp "bad.json" @@ fun path ->
      write path body;
      match M.Perfetto.validate_file ~path with
      | Ok _ -> Alcotest.failf "accepted %s" why
      | Error _ -> ())
    [
      ("not json\n", "plain text");
      (swap ~sub:{|,"args":{"value":10}|} ~by:"", "a counter without args");
      (swap ~sub:{|"value":10|} ~by:{|"v":10|}, "a counter without a value");
      (swap ~sub:{|"ts":3,|} ~by:"", "an instant without ts");
      (swap ~sub:{|"ph":"i"|} ~by:{|"ph":"Z"|}, "an unknown event phase");
      (swap ~sub:"]}" ~by:"", "a missing array closer");
    ]

let test_validator_rejects_foreign_schema () =
  in_temp "foreign.json" @@ fun path ->
  write path
    "{\"type\": \"meta\", \"schema\": \"vp-obs-trace/1\", \"interval\": 1, \
     \"intervals\": 0}\n";
  (match M.Perfetto.validate_file ~path with
  | Ok _ -> Alcotest.fail "accepted a vp-obs-trace file"
  | Error _ -> ());
  write path "";
  match M.Perfetto.validate_file ~path with
  | Ok _ -> Alcotest.fail "accepted an empty file"
  | Error _ -> ()

(* --- rendering --- *)

let test_sparkline () =
  Alcotest.(check string) "empty" "" (T.Render.sparkline [||]);
  let s = T.Render.sparkline ~width:4 [| 0; 1; 4; 8 |] in
  Alcotest.(check int) "width respected" 4 (String.length s);
  Alcotest.(check char) "zero is blank" ' ' s.[0];
  Alcotest.(check char) "max is densest" '#' s.[3];
  Alcotest.(check bool) "nonzero is visible" true (s.[1] <> ' ');
  (* Narrower than the data: max-pooling keeps the peak visible. *)
  let pooled = T.Render.sparkline ~width:2 [| 0; 0; 0; 9 |] in
  Alcotest.(check char) "pooled peak survives" '#' pooled.[1]

let test_lane () =
  let total = [| 100; 100; 100; 100 |] in
  let s = T.Render.lane ~width:4 ~total [| 0; 3; 60; 95 |] in
  Alcotest.(check string) "thresholded glyphs" " .O#" s

let test_extent_rows () =
  (* Two intervals of 10 branches each; phase 1 spans the first,
     phase 2 the second. *)
  let cum = [| 10; 20 |] in
  let rows =
    T.Render.extent_rows ~width:2 ~cum [ (0, 10, 1); (10, 20, 2) ]
  in
  Alcotest.(check bool)
    "one row per phase, marking its own columns" true
    (rows = [ (1, "= "); (2, " =") ])

(* --- detector hooks --- *)

let test_detector_hooks_match_counters () =
  let img = Program.layout (Gen.random_phased ~seed:5) in
  let d =
    Vp_hsd.Detector.create ~config:Vp_hsd.Config.tiny
      ~same:Vp_phase.Similarity.same ()
  in
  let detects = ref 0 and records = ref [] and rearms = ref 0 in
  Vp_hsd.Detector.set_hooks d
    ~on_detect:(fun ~branches:_ ~detections:_ -> incr detects)
    ~on_record:(fun ~branches ~id -> records := (branches, id) :: !records)
    ~on_rearm:(fun ~branches:_ ~rearms:_ -> incr rearms);
  let (_ : Emulator.outcome) =
    Emulator.run_backend
      ~on_branch:(fun ~pc ~taken -> Vp_hsd.Detector.on_branch d ~pc ~taken)
      img
  in
  Alcotest.(check int) "detect hook = detections" (Vp_hsd.Detector.detections d)
    !detects;
  Alcotest.(check int) "rearm hook = rearms" (Vp_hsd.Detector.rearms d) !rearms;
  let records = List.rev !records in
  Alcotest.(check int)
    "record hook = recordings"
    (Vp_hsd.Detector.recordings d)
    (List.length records);
  Alcotest.(check bool) "something detected" true (!detects > 0);
  (* Each record stamp equals the snapshot's detected_at, in order. *)
  List.iter2
    (fun (branches, id) (snap : Vp_hsd.Snapshot.t) ->
      Alcotest.(check int) "stamp = detected_at" snap.Vp_hsd.Snapshot.detected_at
        branches;
      Alcotest.(check int) "id in recording order" snap.Vp_hsd.Snapshot.id id)
    records
    (Vp_hsd.Detector.snapshots d)

(* --- pipeline wiring --- *)

let telemetry_config =
  Vacuum.Config.with_metrics
    (M.create ~interval:1_000 ())
    (Vacuum.Config.with_detector Vp_hsd.Config.tiny Vacuum.Config.default)

let test_profile_timeline () =
  let img = Program.layout (Gen.random_phased ~seed:7) in
  let p = Vacuum.Driver.profile ~config:telemetry_config img in
  let tl = p.Vacuum.Driver.timeline in
  Alcotest.(check bool) "timeline enabled" true (T.enabled tl);
  let instrs = Option.get (T.Series.find tl "profile.instructions") in
  Alcotest.(check int)
    "interval series integrate to the run length"
    p.Vacuum.Driver.outcome.Emulator.instructions
    (Array.fold_left ( + ) 0 instrs);
  let branches = Option.get (T.Series.find tl "profile.branches") in
  Alcotest.(check int)
    "branch series integrates to retired branches"
    p.Vacuum.Driver.outcome.Emulator.cond_branches
    (Array.fold_left ( + ) 0 branches);
  List.iter
    (fun name ->
      Alcotest.(check int)
        (name ^ " sampled every interval")
        (Array.length instrs)
        (Array.length (Option.get (T.Series.find tl name))))
    [ "profile.hdc"; "profile.bbb_occupancy"; "profile.bbb_candidates" ];
  Alcotest.(check int)
    "record events = recordings"
    (List.length p.Vacuum.Driver.snapshots)
    (T.Event.count tl ~kind:"record")

let test_detector_events_on_instruction_clock () =
  (* A record event's stamp is the retired-instruction ordinal of the
     branch that completed the snapshot: its [detected_at]-th branch,
     counted by an independent observer of the same run. *)
  let img = Program.layout (Gen.random_phased ~seed:7) in
  let p = Vacuum.Driver.profile ~config:telemetry_config img in
  let ordinal = Array.make (p.Vacuum.Driver.outcome.Emulator.cond_branches + 1) 0 in
  let retired = ref 0 and branches = ref 0 in
  let (_ : Emulator.outcome) =
    Emulator.run_backend
      ~on_branch:(fun ~pc:_ ~taken:_ ->
        incr branches;
        ordinal.(!branches) <- !retired + 1)
      ~on_retire:(fun ~pc:_ ~taken:_ ~next_pc:_ ~mem_addr:_ -> incr retired)
      img
  in
  let stamps =
    List.filter_map
      (fun (kind, at, _) -> if kind = "record" then Some at else None)
      (T.Event.all p.Vacuum.Driver.timeline)
  in
  Alcotest.(check bool) "something recorded" true (stamps <> []);
  Alcotest.(check (list int))
    "record at = instruction ordinal of the detecting branch"
    (List.map
       (fun (s : Vp_hsd.Snapshot.t) -> ordinal.(s.Vp_hsd.Snapshot.detected_at))
       p.Vacuum.Driver.snapshots)
    stamps

let test_profile_disabled_by_default () =
  let img = Program.layout (Gen.random_phased ~seed:7) in
  let config =
    Vacuum.Config.with_detector Vp_hsd.Config.tiny Vacuum.Config.default
  in
  let p = Vacuum.Driver.profile ~config img in
  Alcotest.(check bool)
    "default profile carries the disabled timeline" false
    (T.enabled p.Vacuum.Driver.timeline)

let test_telemetry_is_behaviour_preserving () =
  (* Sampling must not change what the pipeline computes. *)
  let img = Program.layout (Gen.random_phased ~seed:11) in
  let run config =
    let p = Vacuum.Driver.profile ~config img in
    let r = Vacuum.Driver.rewrite_of_profile ~config p in
    let c = Vacuum.Coverage.measure ~config r in
    ( p.Vacuum.Driver.outcome,
      List.length r.Vacuum.Driver.packages,
      c.Vacuum.Coverage.coverage_pct,
      c.Vacuum.Coverage.equivalent )
  in
  let off =
    run (Vacuum.Config.with_detector Vp_hsd.Config.tiny Vacuum.Config.default)
  in
  let on_ = run telemetry_config in
  Alcotest.(check bool) "identical results" true (off = on_)

let test_residency_integrates_to_coverage () =
  let img = Program.layout (Gen.random_phased ~seed:3) in
  let config = telemetry_config in
  let r = Vacuum.Driver.rewrite ~config img in
  let c = Vacuum.Coverage.measure ~config r in
  let res = c.Vacuum.Coverage.residency in
  let total series_name =
    match T.Series.find res series_name with
    | Some v -> Array.fold_left ( + ) 0 v
    | None -> Alcotest.failf "missing series %s" series_name
  in
  Alcotest.(check int)
    "run.instructions integrates to the rewritten run"
    c.Vacuum.Coverage.outcome.Emulator.instructions (total "run.instructions");
  let pkg_sum =
    List.fold_left
      (fun acc name ->
        if name = "run.instructions" || name = "run.orig.instructions" then acc
        else acc + total name)
      0 (T.Series.names res)
  in
  Alcotest.(check int)
    "package lanes integrate to the Figure 8 numerator"
    c.Vacuum.Coverage.outcome.Emulator.package_instructions pkg_sum;
  Alcotest.(check int)
    "lanes partition the run"
    c.Vacuum.Coverage.outcome.Emulator.instructions
    (pkg_sum + total "run.orig.instructions")

let test_exported_counters_integrate () =
  (* The exported counter tracks carry the same numbers as the
     in-memory series: a run's instruction track sums to its length,
     and its last sample sits at that length on the instruction clock. *)
  let img = Program.layout (Gen.random_phased ~seed:7) in
  let config = telemetry_config in
  let p = Vacuum.Driver.profile ~config img in
  let c =
    Vacuum.Coverage.measure ~config (Vacuum.Driver.rewrite_of_profile ~config p)
  in
  in_temp "export.json" @@ fun path ->
  T.write_perfetto ~path [ p.Vacuum.Driver.timeline; c.Vacuum.Coverage.residency ];
  let check track (o : Emulator.outcome) =
    let values = counter_values path track in
    Alcotest.(check int) (track ^ " sums to the run's instructions")
      o.Emulator.instructions (List.fold_left ( + ) 0 values);
    Alcotest.(check bool) (track ^ " ends at the run's length") true
      (contains (read path)
         (Printf.sprintf {|"name":"%s","pid":%d,"ts":%d,|} track
            (if track = "run.instructions" then 2 else 1)
            o.Emulator.instructions))
  in
  check "profile.instructions" p.Vacuum.Driver.outcome;
  check "run.instructions" c.Vacuum.Coverage.outcome

let test_timing_series () =
  let img = Program.layout (Progs.two_phase ~iters_per_phase:500 ~repeats:2) in
  let tl = timeline ~interval:1_000 () in
  let stats = Vp_cpu.Pipeline.simulate ~telemetry:tl img in
  let sum name =
    Array.fold_left ( + ) 0 (Option.get (T.Series.find tl name))
  in
  Alcotest.(check int) "instruction deltas integrate"
    stats.Vp_cpu.Pipeline.instructions (sum "timing.instructions");
  Alcotest.(check int) "cycle deltas integrate" stats.Vp_cpu.Pipeline.cycles
    (sum "timing.cycles");
  Alcotest.(check int) "icache deltas integrate"
    stats.Vp_cpu.Pipeline.icache_misses
    (sum "timing.icache_misses");
  Alcotest.(check int) "mispredict deltas integrate"
    stats.Vp_cpu.Pipeline.branch_mispredicts
    (sum "timing.mispredicts")

(* --- determinism across schedules --- *)

(* The backend is one more input that must not show: the reference
   interpreter reports runs of length 1 and the compiled core one run
   per block, so a sampler that flushed at run boundaries instead of
   instruction boundaries would split the traces. *)
let test_traces_identical_across_jobs () =
  let timelines backend seed =
    let config = Vacuum.Config.with_backend backend telemetry_config in
    let image = Program.layout (Gen.random_phased ~seed) in
    let p = Vacuum.Driver.profile ~config image in
    let r = Vacuum.Driver.rewrite_of_profile ~config p in
    let epoch = Vacuum.Session.step (Vacuum.Session.create ~config image) in
    [
      p.Vacuum.Driver.timeline;
      (Vacuum.Coverage.measure ~config r).Vacuum.Coverage.residency;
      epoch.Vacuum.Session.timeline;
    ]
  in
  let trace_of ~backend jobs path =
    T.write_perfetto ~path
      (List.concat (Vp_util.Pool.map ~jobs (timelines backend) [ 1; 2; 3; 4 ]))
  in
  in_temp "seq.json" @@ fun seq ->
  in_temp "par.json" @@ fun par ->
  in_temp "ref.json" @@ fun ref_ ->
  trace_of ~backend:Emulator.Compiled 1 seq;
  trace_of ~backend:Emulator.Compiled 4 par;
  trace_of ~backend:Emulator.Reference 4 ref_;
  let a = read seq and b = read par and c = read ref_ in
  Alcotest.(check bool) "traces non-trivial" true (String.length a > 100);
  Alcotest.(check bool) "byte-identical across --jobs 1 and 4" true (a = b);
  Alcotest.(check bool) "byte-identical across backends" true (a = c);
  List.iter
    (fun prefix ->
      Alcotest.(check bool)
        (prefix ^ " counters present")
        true
        (Vp_util.Io.find_sub a (Printf.sprintf "\"%s." prefix) <> None))
    [ "profile"; "run"; "session" ]

let () =
  Alcotest.run "vp_telemetry"
    [
      ( "storage",
        [
          Alcotest.test_case "series basics" `Quick test_series_basics;
          Alcotest.test_case "event basics" `Quick test_event_basics;
          Alcotest.test_case "disabled no-op" `Quick test_disabled_noop;
          Alcotest.test_case "disabled zero allocation" `Quick
            test_disabled_zero_allocation;
          Alcotest.test_case "bad interval rejected" `Quick
            test_bad_interval_rejected;
        ] );
      ( "trace",
        [
          Alcotest.test_case "roundtrip" `Quick test_trace_roundtrip;
          Alcotest.test_case "rejects garbage" `Quick
            test_validator_rejects_garbage;
          Alcotest.test_case "rejects foreign schema" `Quick
            test_validator_rejects_foreign_schema;
        ] );
      ( "render",
        [
          Alcotest.test_case "sparkline" `Quick test_sparkline;
          Alcotest.test_case "lane" `Quick test_lane;
          Alcotest.test_case "extent rows" `Quick test_extent_rows;
        ] );
      ( "wiring",
        [
          Alcotest.test_case "detector hooks" `Quick
            test_detector_hooks_match_counters;
          Alcotest.test_case "profile timeline" `Quick test_profile_timeline;
          Alcotest.test_case "detector events on the instruction clock" `Quick
            test_detector_events_on_instruction_clock;
          Alcotest.test_case "disabled by default" `Quick
            test_profile_disabled_by_default;
          Alcotest.test_case "behaviour preserving" `Quick
            test_telemetry_is_behaviour_preserving;
          Alcotest.test_case "residency integrates to coverage" `Quick
            test_residency_integrates_to_coverage;
          Alcotest.test_case "exported counters integrate" `Quick
            test_exported_counters_integrate;
          Alcotest.test_case "timing series" `Quick test_timing_series;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "traces identical across --jobs" `Slow
            test_traces_identical_across_jobs;
        ] );
    ]
