(* The generative corpus: phase-structured random binaries, the
   vp-retire-trace/1 external trace format (round-trip, totality under
   corruption), the emulator-free ingestion path, and the shrinking
   chaos campaign built on all three. *)

module R = Vp_util.Rng
module Gen = Vp_gen.Gen
module Trace = Vp_gen.Trace
module Campaign = Vp_gen.Campaign
module Program = Vp_prog.Program
module Image = Vp_prog.Image
module Emulator = Vp_exec.Emulator
module Detector = Vp_hsd.Detector
module Config = Vacuum.Config
module Driver = Vacuum.Driver
module Pool = Vp_util.Pool

let listing img = Format.asprintf "%a" Image.pp_listing img
let build ~seed params = Program.layout (Gen.program ~seed params)

(* Fuel ceiling for direct runs of generated binaries: default_bounds
   keeps programs well under a million instructions. *)
let gen_fuel = 4_000_000

(* ---- generator ---- *)

let test_deterministic () =
  List.iter
    (fun seed ->
      let a = build ~seed Gen.default and b = build ~seed Gen.default in
      Alcotest.(check string)
        (Printf.sprintf "seed %d listing identical" seed)
        (listing a) (listing b))
    [ 1; 7; 42; 123456789 ]

let test_seeds_diverge () =
  let distinct =
    List.sort_uniq compare
      (List.map (fun seed -> listing (build ~seed Gen.default)) [ 1; 2; 3; 4; 5 ])
  in
  Alcotest.(check bool) "5 seeds give >= 4 distinct programs" true
    (List.length distinct >= 4)

let test_halts () =
  (* Acyclic calls + counted loops: every generated program must halt,
     at any sampled parameter point. *)
  let rng = R.create ~seed:99 in
  for i = 0 to 11 do
    let params = Gen.sample Gen.default_bounds (R.stream rng i) in
    let seed = 1000 + i in
    let out = Emulator.run_backend ~fuel:gen_fuel (build ~seed params) in
    Alcotest.(check bool)
      (Format.asprintf "case %d halts (%a)" i Gen.pp params)
      true out.Emulator.halted
  done

let test_clamp_hostile_params () =
  let hostile =
    {
      Gen.phases = -3;
      hot_funcs = 9999;
      call_depth = -1;
      loop_nesting = 100;
      body_blocks = 0;
      share_pct = 400;
      phase_iters = -7;
      rounds = 1_000_000;
      globals = 3;
    }
  in
  let c = Gen.clamp hostile in
  Alcotest.(check bool) "clamp idempotent" true (Gen.clamp c = c);
  let out = Emulator.run_backend ~fuel:gen_fuel (build ~seed:5 hostile) in
  Alcotest.(check bool) "hostile params still build and halt" true
    out.Emulator.halted

let test_fields_roundtrip () =
  let p = Gen.clamp { Gen.default with Gen.phases = 5; share_pct = 50 } in
  (match Gen.of_fields (Gen.fields p) with
  | Ok q -> Alcotest.(check bool) "of_fields . fields = id" true (p = q)
  | Error e -> Alcotest.fail e);
  (match Gen.of_fields [ ("no_such_knob", 1) ] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown key accepted");
  match Gen.of_fields [ ("phases", 2) ] with
  | Ok q ->
    Alcotest.(check int) "named key taken" 2 q.Gen.phases;
    Alcotest.(check int) "missing keys default" Gen.default.Gen.rounds
      q.Gen.rounds
  | Error e -> Alcotest.fail e

let test_sample_deterministic () =
  let draw () = Gen.sample Gen.default_bounds (R.stream (R.create ~seed:4) 9) in
  Alcotest.(check bool) "same stream, same point" true (draw () = draw ())

let test_shrinks_strictly_smaller () =
  let rng = R.create ~seed:17 in
  for i = 0 to 9 do
    let p = Gen.sample Gen.default_bounds (R.stream rng i) in
    List.iter
      (fun q ->
        Alcotest.(check bool)
          (Format.asprintf "shrink of (%a) is clamped" Gen.pp p)
          true
          (Gen.clamp q = q);
        Alcotest.(check bool)
          (Format.asprintf "weight strictly drops: (%a) -> (%a)" Gen.pp p
             Gen.pp q)
          true
          (Gen.weight q < Gen.weight p))
      (Gen.shrinks p)
  done;
  Alcotest.(check int) "floor point has no shrinks" 0
    (List.length
       (Gen.shrinks
          (Gen.clamp
             {
               Gen.phases = 1;
               hot_funcs = 1;
               call_depth = 1;
               loop_nesting = 0;
               body_blocks = 1;
               share_pct = 0;
               phase_iters = 1;
               rounds = 1;
               globals = 16;
             })))

(* ---- trace format ---- *)

let small_trace () =
  let img = build ~seed:11 { Gen.default with Gen.phases = 2; phase_iters = 6 } in
  let t, out = Trace.record ~fuel:gen_fuel img in
  Alcotest.(check bool) "recording run halts" true out.Emulator.halted;
  (t, out)

let test_trace_roundtrip () =
  let t, out = small_trace () in
  Alcotest.(check int) "events = retired cond branches"
    out.Emulator.cond_branches (Trace.length t);
  Alcotest.(check int) "instructions carried" out.Emulator.instructions
    t.Trace.instructions;
  let enc = Trace.encode t in
  (match Trace.decode enc with
  | Ok t' ->
    Alcotest.(check bool) "decode . encode = id" true (Trace.equal t t')
  | Error e -> Alcotest.fail ("fresh encoding rejected: " ^ e));
  match Trace.validate enc with
  | Ok n -> Alcotest.(check int) "validate counts events" (Trace.length t) n
  | Error e -> Alcotest.fail e

let test_trace_prefix () =
  let t, _ = small_trace () in
  let n = Trace.length t / 3 in
  let p = Trace.prefix t n in
  Alcotest.(check int) "prefix length" n (Trace.length p);
  Alcotest.(check bool) "prefix events are a prefix" true
    (Array.sub (Trace.events t) 0 n = Trace.events p);
  Alcotest.(check bool) "prefix instructions scaled down" true
    (p.Trace.instructions <= t.Trace.instructions);
  Alcotest.(check bool) "over-long prefix clamps" true
    (Trace.equal t (Trace.prefix t (Trace.length t + 999)))

let test_trace_file_roundtrip () =
  let t, _ = small_trace () in
  let path = Filename.temp_file "vp-gen-test" ".trace" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Trace.write_file ~path t;
      (match Trace.read_file ~path with
      | Ok t' -> Alcotest.(check bool) "file round-trip" true (Trace.equal t t')
      | Error e -> Alcotest.fail e);
      match Trace.validate_file ~path with
      | Ok n -> Alcotest.(check int) "validate_file" (Trace.length t) n
      | Error e -> Alcotest.fail e)

let test_trace_every_truncation_rejected () =
  let t, _ = small_trace () in
  let enc = Trace.encode t in
  for cut = 0 to String.length enc - 1 do
    match Trace.decode (String.sub enc 0 cut) with
    | Ok _ -> Alcotest.fail (Printf.sprintf "truncation to %d bytes accepted" cut)
    | Error _ -> ()
    | exception exn ->
      Alcotest.fail
        (Printf.sprintf "truncation to %d bytes raised %s" cut
           (Printexc.to_string exn))
  done

let test_trace_bit_flips_rejected () =
  (* The body is FNV-checksummed and the header/trailer structurally
     checked: no single bit flip may be silently accepted, and none
     may raise. *)
  let t, _ = small_trace () in
  let enc = Trace.encode t in
  let rng = R.create ~seed:23 in
  for _ = 1 to 200 do
    let at = R.int rng (String.length enc) in
    let bit = R.int rng 8 in
    let b = Bytes.of_string enc in
    Bytes.set b at (Char.chr (Char.code enc.[at] lxor (1 lsl bit)));
    match Trace.decode (Bytes.to_string b) with
    | Ok _ ->
      Alcotest.fail (Printf.sprintf "bit %d of byte %d flipped: accepted" bit at)
    | Error _ -> ()
    | exception exn ->
      Alcotest.fail
        (Printf.sprintf "bit %d of byte %d flipped: raised %s" bit at
           (Printexc.to_string exn))
  done

let test_trace_junk_rejected () =
  List.iter
    (fun (what, s) ->
      match Trace.decode s with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail (what ^ " accepted")
      | exception exn ->
        Alcotest.fail (what ^ " raised " ^ Printexc.to_string exn))
    [
      ("empty string", "");
      ("junk", "definitely not a trace");
      ("bare header", Trace.schema ^ "\n");
      ("wrong schema", "vp-retire-trace/9\nM");
      (* A 9-byte varint whose top byte smuggles bits past the native
         int's 62-bit range: must be rejected, not wrapped negative. *)
      ( "overlong varint",
        Trace.schema ^ "\nM" ^ String.make 8 '\x80' ^ "\x40" );
    ]

let test_of_events_negative_pc () =
  Alcotest.check_raises "negative pc refused"
    (Invalid_argument "Trace.of_events: negative pc")
    (fun () -> ignore (Trace.of_events [| (3, true); (-4, false) |]))

(* ---- ingestion ---- *)

let ingest_config out =
  Config.with_fuel
    ((2 * out.Emulator.instructions) + 10_000)
    Campaign.default_config

let test_ingestion_matches_live_profile () =
  let img = build ~seed:77 Gen.default in
  let t, out = Trace.record ~fuel:gen_fuel img in
  let config = ingest_config out in
  let live = Driver.profile ~config img in
  Alcotest.(check bool) "live profile detects something" true
    (live.Driver.snapshots <> []);
  let ingested =
    Driver.profile_of_events ~config ~instructions:t.Trace.instructions img
      (Trace.events t)
  in
  Alcotest.(check bool) "identical snapshot streams" true
    (ingested.Driver.snapshots = live.Driver.snapshots)

let test_ingested_rewrite_equivalent () =
  let img = build ~seed:77 Gen.default in
  let t, clean = Trace.record ~fuel:gen_fuel img in
  let config = ingest_config clean in
  let ingested =
    Driver.profile_of_events ~config ~instructions:t.Trace.instructions img
      (Trace.events t)
  in
  let rw = Driver.rewrite_of_profile ~config ingested in
  Alcotest.(check bool) "rewrite verifies" true
    (Vp_package.Verify.ok rw.Driver.verification);
  let out =
    Emulator.run_backend ~fuel:(Config.fuel config)
      (Driver.rewritten_image rw)
  in
  Alcotest.(check bool) "rewritten halts" true out.Emulator.halted;
  Alcotest.(check int) "result preserved" clean.Emulator.result
    out.Emulator.result;
  Alcotest.(check int) "checksum preserved" clean.Emulator.checksum
    out.Emulator.checksum

let test_ingestion_tolerates_alien_pcs () =
  let img = build ~seed:3 Gen.default in
  let t, _ = Trace.record ~fuel:gen_fuel img in
  let alien = Array.map (fun (pc, tk) -> (pc + Image.size img, tk)) (Trace.events t) in
  let p = Driver.profile_of_events ~config:Campaign.default_config img alien in
  Alcotest.(check bool) "alien events warned about" true
    (List.exists
       (fun (e : Vacuum.Error.t) -> e.Vacuum.Error.stage = "ingest")
       p.Driver.warnings)

let test_detector_replay () =
  let img = build ~seed:8 Gen.default in
  let t, _ = Trace.record ~fuel:gen_fuel img in
  let config = Campaign.campaign_detector in
  let a = Detector.create ~config () in
  Array.iter (fun (pc, taken) -> Detector.on_branch a ~pc ~taken) (Trace.events t);
  let b = Detector.create ~config () in
  Detector.replay b (Trace.events t);
  Alcotest.(check bool) "replay = on_branch loop" true
    (Detector.snapshots a = Detector.snapshots b)

(* ---- campaign ---- *)

let test_campaign_smoke () =
  let r = Campaign.run ~count:4 () in
  Alcotest.(check bool) "all 4 generated cases pass" true (Campaign.ok r);
  Alcotest.(check int) "all cases reported" 4 (List.length r.Campaign.outcomes);
  List.iteri
    (fun i o ->
      Alcotest.(check int) "index order" i o.Campaign.index;
      Alcotest.(check bool) "chaos matrix ran" true (o.Campaign.cells > 0);
      Alcotest.(check bool) "trace recorded" true (o.Campaign.trace_events > 0))
    r.Campaign.outcomes;
  Alcotest.(check bool) "corpus detector fires on generated binaries" true
    (List.exists (fun o -> o.Campaign.snapshots > 0) r.Campaign.outcomes)

let test_campaign_render_deterministic () =
  let go ?(config = Campaign.default_config) jobs =
    Campaign.render (Campaign.run ~config ~jobs ~count:6 ())
  in
  let base = go 1 in
  Alcotest.(check string) "jobs 1 = jobs 2" base (go 2);
  Alcotest.(check string) "jobs 1 = jobs 4" base (go 4);
  Alcotest.(check string) "reference backend = compiled" base
    (go ~config:(Config.with_backend Emulator.Reference Campaign.default_config) 2)

let test_spec_of_index_schedule_free () =
  let a = Campaign.spec_of_index ~root_seed:0 5 in
  Alcotest.(check bool) "same index, same spec" true
    (a = Campaign.spec_of_index ~root_seed:0 5);
  Alcotest.(check bool) "different index, different spec" true
    (a <> Campaign.spec_of_index ~root_seed:0 6);
  Alcotest.(check bool) "different root, different spec" true
    (a <> Campaign.spec_of_index ~root_seed:1 5)

let test_campaign_shrink_descends () =
  (* Starve the fuel so every case fails at the generate stage: the
     shrinker must walk the lattice down to a smaller point while the
     failure keeps reproducing, deterministically. *)
  let config = Config.with_fuel 120 Campaign.default_config in
  let spec = Campaign.spec_of_index ~root_seed:0 0 in
  let o = Campaign.run_case ~config ~index:0 spec in
  (match o.Campaign.failure with
  | Some f -> Alcotest.(check string) "starved fuel fails generate" "generate" f.Campaign.stage
  | None -> Alcotest.fail "starved case passed");
  let f = Option.get o.Campaign.failure in
  let repro, attempts = Campaign.shrink ~config spec f in
  Alcotest.(check string) "stage preserved" "generate" repro.Campaign.stage;
  Alcotest.(check bool) "attempts bounded" true (attempts <= 48);
  Alcotest.(check bool) "weight shrank" true
    (Gen.weight repro.Campaign.spec.Campaign.params
    < Gen.weight spec.Campaign.params);
  let repro2, attempts2 = Campaign.shrink ~config spec f in
  Alcotest.(check bool) "shrinking is deterministic" true
    (repro = repro2 && attempts = attempts2)

let test_campaign_never_crashes () =
  (* run_case must catch everything: even a config whose fuel starves
     the pipeline yields a failure outcome, not an exception. *)
  let config = Config.with_fuel 1 Campaign.default_config in
  for i = 0 to 3 do
    let o =
      Campaign.run_case ~config ~index:i (Campaign.spec_of_index ~root_seed:7 i)
    in
    Alcotest.(check bool)
      (Printf.sprintf "case %d fails cleanly" i)
      true (o.Campaign.failure <> None)
  done

let test_repro_roundtrip () =
  let repro =
    {
      Campaign.spec =
        { Campaign.seed = 424242; params = Gen.default; trace_frac_pct = 25 };
      stage = "trace-ingest";
      detail = "multi\nline detail";
    }
  in
  match Campaign.repro_of_string (Campaign.repro_to_string repro) with
  | Error e -> Alcotest.fail e
  | Ok r ->
    Alcotest.(check int) "seed" 424242 r.Campaign.spec.Campaign.seed;
    Alcotest.(check int) "trace frac" 25 r.Campaign.spec.Campaign.trace_frac_pct;
    Alcotest.(check string) "stage" "trace-ingest" r.Campaign.stage;
    Alcotest.(check bool) "params" true (r.Campaign.spec.Campaign.params = Gen.default);
    Alcotest.(check string) "detail flattened to one line" "multi line detail"
      r.Campaign.detail

let test_repro_parser_total () =
  List.iter
    (fun (what, s) ->
      match Campaign.repro_of_string s with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail (what ^ " accepted")
      | exception exn ->
        Alcotest.fail (what ^ " raised " ^ Printexc.to_string exn))
    [
      ("empty", "");
      ("junk", "hello\nworld");
      ("missing seed", "# vp-fuzz-repro/1\nstage chaos\n");
      ("missing stage", "# vp-fuzz-repro/1\nseed 3\n");
      ("bad int", "# vp-fuzz-repro/1\nseed zebra\nstage chaos\n");
      ("unknown key", "# vp-fuzz-repro/1\nseed 3\nstage chaos\nwhatever 1\n");
    ]

let test_save_and_replay () =
  let root = Filename.temp_file "vp-gen-corpus" "" in
  Sys.remove root;
  (* Two missing levels: save_repros creates the whole path. *)
  let dir = Filename.concat root "corpus" in
  let repro =
    {
      Campaign.spec = Campaign.spec_of_index ~root_seed:0 1;
      stage = "chaos";
      detail = "synthetic";
    }
  in
  let report =
    {
      Campaign.count = 1;
      chaos_seeds = 1;
      root_seed = 0;
      outcomes = [];
      repros = [ repro ];
      shrink_attempts = 0;
    }
  in
  let paths = Campaign.save_repros ~dir report in
  Fun.protect
    ~finally:(fun () ->
      List.iter Sys.remove paths;
      try
        Sys.rmdir dir;
        Sys.rmdir root
      with Sys_error _ -> ())
    (fun () ->
      match paths with
      | [ path ] -> (
        match Campaign.load_repro_file ~path with
        | Error e -> Alcotest.fail e
        | Ok loaded -> (
          Alcotest.(check bool) "spec survives the file" true
            (loaded.Campaign.spec = repro.Campaign.spec);
          (* The spec itself is healthy, so replay reports the
             regression as fixed. *)
          match Campaign.replay loaded with
          | Ok _ -> ()
          | Error f ->
            Alcotest.fail
              (Printf.sprintf "replay failed at %s: %s" f.Campaign.stage
                 f.Campaign.detail)))
      | ps -> Alcotest.fail (Printf.sprintf "expected 1 path, got %d" (List.length ps)))

(* ---- committed corpus ---- *)

let corpus_files () =
  if Sys.file_exists "corpus" && Sys.is_directory "corpus" then
    Sys.readdir "corpus" |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".repro")
    |> List.sort compare
    |> List.map (Filename.concat "corpus")
  else []

let test_corpus_replays_clean () =
  (* Every committed repro captures a once-failing case; with the bugs
     fixed, replaying each one must pass. *)
  let files = corpus_files () in
  Alcotest.(check bool) "corpus is non-empty" true (files <> []);
  List.iter
    (fun path ->
      match Campaign.load_repro_file ~path with
      | Error e -> Alcotest.fail (path ^ ": " ^ e)
      | Ok r -> (
        match Campaign.replay r with
        | Ok _ -> ()
        | Error f ->
          Alcotest.fail
            (Printf.sprintf "%s: regression is back at stage %s: %s" path
               f.Campaign.stage f.Campaign.detail)))
    files

let () =
  Alcotest.run "vp_gen"
    [
      ( "generator",
        [
          Alcotest.test_case "deterministic from seed" `Quick test_deterministic;
          Alcotest.test_case "seeds diverge" `Quick test_seeds_diverge;
          Alcotest.test_case "every sampled program halts" `Slow test_halts;
          Alcotest.test_case "hostile params clamp" `Quick
            test_clamp_hostile_params;
          Alcotest.test_case "fields round-trip" `Quick test_fields_roundtrip;
          Alcotest.test_case "sample deterministic" `Quick
            test_sample_deterministic;
          Alcotest.test_case "shrinks strictly smaller" `Quick
            test_shrinks_strictly_smaller;
        ] );
      ( "trace",
        [
          Alcotest.test_case "encode/decode round-trip" `Quick
            test_trace_roundtrip;
          Alcotest.test_case "prefix" `Quick test_trace_prefix;
          Alcotest.test_case "file round-trip" `Quick test_trace_file_roundtrip;
          Alcotest.test_case "every truncation rejected" `Slow
            test_trace_every_truncation_rejected;
          Alcotest.test_case "bit flips rejected" `Slow
            test_trace_bit_flips_rejected;
          Alcotest.test_case "junk rejected" `Quick test_trace_junk_rejected;
          Alcotest.test_case "negative pc refused" `Quick
            test_of_events_negative_pc;
        ] );
      ( "ingestion",
        [
          Alcotest.test_case "matches the live profile" `Slow
            test_ingestion_matches_live_profile;
          Alcotest.test_case "ingested rewrite equivalent" `Slow
            test_ingested_rewrite_equivalent;
          Alcotest.test_case "alien pcs tolerated" `Quick
            test_ingestion_tolerates_alien_pcs;
          Alcotest.test_case "Detector.replay = loop" `Quick test_detector_replay;
        ] );
      ( "campaign",
        [
          Alcotest.test_case "smoke" `Slow test_campaign_smoke;
          Alcotest.test_case "render byte-identical across jobs and backends"
            `Slow test_campaign_render_deterministic;
          Alcotest.test_case "spec derivation schedule-free" `Quick
            test_spec_of_index_schedule_free;
          Alcotest.test_case "shrink descends deterministically" `Slow
            test_campaign_shrink_descends;
          Alcotest.test_case "never crashes" `Quick test_campaign_never_crashes;
          Alcotest.test_case "repro round-trip" `Quick test_repro_roundtrip;
          Alcotest.test_case "repro parser total" `Quick test_repro_parser_total;
          Alcotest.test_case "save + replay" `Slow test_save_and_replay;
        ] );
      ( "corpus",
        [ Alcotest.test_case "committed repros replay clean" `Slow
            test_corpus_replays_clean ] );
    ]
