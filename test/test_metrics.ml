(* The instrumentation plane: log-scale histograms, the registry and
   its volatility classes, spans and their ring, snapshot exposition
   and round-trip, Perfetto export and its per-domain tracks, the
   flight recorder, pipeline span coverage — and the two contracts everything
   hangs on: stable snapshots are byte-identical across schedules and
   backends, and the disabled registry allocates nothing on hot
   paths. *)

module M = Vp_metrics
module Hist = Vp_metrics.Hist
module Pool = Vp_util.Pool
module Program = Vp_prog.Program
module Emulator = Vp_exec.Emulator
module Config = Vacuum.Config
module Session = Vacuum.Session
module Progs = Vp_test_support.Progs
module Gen = Vp_test_support.Gen

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let temp suffix = Filename.temp_file "vp-metrics" suffix

let contains hay needle = Option.is_some (Vp_util.Io.find_sub hay needle)

(* ---- Hist ---- *)

let test_hist_bounds () =
  Alcotest.(check int) "bound 0" 0 (Hist.bound 0);
  Alcotest.(check int) "bound 1" 1 (Hist.bound 1);
  Alcotest.(check int) "bound 2" 2 (Hist.bound 2);
  Alcotest.(check int) "bound 3" 4 (Hist.bound 3);
  (* index/bound identity: reading a bucket's upper bound back lands in
     the same bucket, the property Snapshot.read's reconstruction
     relies on *)
  for i = 0 to Hist.buckets - 1 do
    Alcotest.(check int)
      (Printf.sprintf "index (bound %d)" i)
      i
      (Hist.index (Hist.bound i))
  done;
  Alcotest.(check int) "<= 0 in bucket 0" 0 (Hist.index (-5));
  Alcotest.(check int) "max_int clamps to last bucket" (Hist.buckets - 1)
    (Hist.index max_int)

let test_hist_exact_count_sum () =
  let h = Hist.create () in
  let values = [ 0; 1; 1; 3; 100; 1024; 1025; 999_999 ] in
  List.iter (Hist.observe h) values;
  Alcotest.(check int) "count" (List.length values) (Hist.count h);
  Alcotest.(check int) "sum" (List.fold_left ( + ) 0 values) (Hist.sum h);
  let by_buckets = ref 0 in
  for i = 0 to Hist.buckets - 1 do
    by_buckets := !by_buckets + Hist.bucket_count h i
  done;
  Alcotest.(check int) "buckets partition the observations"
    (Hist.count h) !by_buckets;
  (* every observation is within its bucket's bounds *)
  List.iter
    (fun v ->
      let i = Hist.index v in
      Alcotest.(check bool)
        (Printf.sprintf "%d <= bound %d" v i)
        true
        (v <= Hist.bound i || i = Hist.buckets - 1))
    values

let test_hist_quantiles () =
  let h = Hist.create () in
  Alcotest.(check int) "empty p50" 0 (Hist.quantile h 0.5);
  for v = 1 to 100 do
    Hist.observe h v
  done;
  (* The quantile is the upper bound of the bucket holding the rank-q
     observation: an upper bound on the true quantile with at most 2x
     relative error. *)
  List.iter
    (fun (q, exact) ->
      let got = Hist.quantile h q in
      Alcotest.(check bool)
        (Printf.sprintf "p%.0f=%d is an upper bound on %d" (100. *. q) got exact)
        true (got >= exact);
      Alcotest.(check bool)
        (Printf.sprintf "p%.0f=%d within 2x of %d" (100. *. q) got exact)
        true
        (got <= 2 * exact))
    [ (0.5, 50); (0.9, 90); (0.99, 99) ];
  Alcotest.(check int) "p100 = last bucket bound" (Hist.bound (Hist.index 100))
    (Hist.quantile h 1.0)

(* ---- registry ---- *)

let test_registry_ops () =
  let t = M.create () in
  M.Counter.bump t "c" 2;
  M.Counter.bump t "c" 3;
  Alcotest.(check int) "counter" 5 (M.Counter.value t "c");
  M.Counter.bump ~volatile:true t "v" 7;
  M.Counter.bump ~volatile:true t "v" 9;
  Alcotest.(check int) "volatile counter" 16 (M.Counter.value t "v");
  M.Histogram.observe t "h" 10;
  M.Histogram.observe t "h" 20;
  match M.Histogram.get t "h" with
  | None -> Alcotest.fail "histogram registered"
  | Some h ->
    Alcotest.(check int) "hist count" 2 (Hist.count h);
    Alcotest.(check int) "hist sum" 30 (Hist.sum h)

let test_disabled_registry_inert () =
  let t = M.disabled in
  Alcotest.(check bool) "disabled" false (M.enabled t);
  M.Counter.bump t "c" 5;
  M.Counter.bump ~volatile:true t "v" 5;
  M.Histogram.observe t "h" 5;
  M.Flight.note t ~kind:"k" ~label:"l";
  Alcotest.(check int) "counter silent" 0 (M.Counter.value t "c");
  Alcotest.(check int) "volatile counter silent" 0 (M.Counter.value t "v");
  Alcotest.(check bool) "hist silent" true (M.Histogram.get t "h" = None);
  Alcotest.(check int) "no dumps" 0 (M.Flight.dumps t);
  Alcotest.(check string) "empty render" "# vp-metrics-snapshot/1\n# EOF\n"
    (M.Snapshot.render t)

(* ---- counters ---- *)

let test_counter_basics () =
  let t = M.create () in
  M.Counter.bump t "a" 1;
  M.Counter.bump t "a" 4;
  M.Counter.bump t "b" 2;
  M.Counter.bump t "zero" 0;
  Alcotest.(check int) "bumps add up by name" 5 (M.Counter.value t "a");
  Alcotest.(check int) "unknown name reads 0" 0 (M.Counter.value t "nope");
  Alcotest.(check (list string))
    "snapshot sorted by name" [ "a"; "b"; "zero" ]
    (List.map fst (M.Snapshot.samples t))

let test_counter_disabled () =
  let t = M.disabled in
  M.Counter.bump t "ghost" 7;
  M.Counter.bump ~volatile:true t "ghost" 7;
  Alcotest.(check int) "disabled value is 0" 0 (M.Counter.value t "ghost");
  Alcotest.(check int) "disabled records nothing" 0
    (List.length (M.Snapshot.samples ~volatile:true t))

let test_counter_bump_is_parallel_safe () =
  (* Pool tasks bump shared names from several domains at once: no
     update may be lost. *)
  let t = M.create () in
  let domains =
    List.init 4 (fun _ ->
        Domain.spawn (fun () ->
            for _ = 1 to 1000 do
              M.Counter.bump t "shared" 1
            done))
  in
  List.iter Domain.join domains;
  Alcotest.(check int) "no lost updates" 4000 (M.Counter.value t "shared")

let test_first_registration_wins () =
  let t = M.create () in
  M.Counter.bump t "x" 4;
  (* a later op of a different kind under the same name is dropped, not
     a crash and not a silent re-type *)
  M.Histogram.observe t "x" 99;
  Alcotest.(check int) "still the counter" 4 (M.Counter.value t "x");
  Alcotest.(check bool) "no histogram grafted" true
    (M.Histogram.get t "x" = None);
  M.Histogram.observe t "y" 3;
  M.Counter.bump t "y" 99;
  Alcotest.(check int) "no counter grafted" 0 (M.Counter.value t "y");
  match M.Histogram.get t "y" with
  | Some h -> Alcotest.(check int) "still the histogram" 3 (Hist.sum h)
  | None -> Alcotest.fail "histogram lost"

(* ---- alloc (the CI gate group: disabled path allocates nothing) ---- *)

let test_disabled_zero_alloc () =
  let t = M.disabled in
  (* warm up any one-time allocation *)
  M.Counter.bump t "hot" 1;
  M.Histogram.observe t "hot" 1;
  let before = Gc.minor_words () in
  for i = 1 to 100_000 do
    M.Counter.bump t "hot" 1;
    M.Histogram.observe t "hot" i
  done;
  let words = Gc.minor_words () -. before in
  Alcotest.(check bool)
    (Printf.sprintf "%.0f minor words over 200k disabled ops" words)
    true (words < 256.)

let unit_task () = ()

let test_disabled_spans_zero_alloc () =
  let t = M.disabled in
  M.Span.exit ~work:1 t (M.Span.enter t "warm");
  M.Span.record t "warm" unit_task;
  let before = Gc.minor_words () in
  for _ = 1 to 100_000 do
    let tok = M.Span.enter t "hot" in
    M.Span.record t "hot" unit_task;
    M.Span.exit ~work:3 t tok
  done;
  let words = Gc.minor_words () -. before in
  Alcotest.(check bool)
    (Printf.sprintf "%.0f minor words over 300k disabled span ops" words)
    true (words < 256.)

(* ---- spans ---- *)

let test_span_nesting () =
  let t = M.create () in
  let outer = M.Span.enter t "outer" in
  let inner = M.Span.enter t "inner" in
  M.Span.exit ~work:3 t inner;
  M.Span.exit ~work:7 t outer;
  (match M.Span.ring t with
  | [ a; b ] ->
    Alcotest.(check string) "inner completes first" "inner" a.M.name;
    Alcotest.(check int) "inner depth" 1 a.M.depth;
    Alcotest.(check int) "inner work" 3 a.M.work;
    Alcotest.(check string) "outer second" "outer" b.M.name;
    Alcotest.(check int) "outer depth" 0 b.M.depth;
    Alcotest.(check int) "outer work" 7 b.M.work
  | spans -> Alcotest.failf "expected 2 spans, got %d" (List.length spans));
  Alcotest.(check int) "count counter" 1 (M.Counter.value t "span.inner.count");
  Alcotest.(check int) "work counter" 7 (M.Counter.value t "span.outer.work")

let test_span_record () =
  let t = M.create () in
  let v = M.Span.record t "stage" ~work:(fun n -> n * 2) (fun () -> 21) in
  Alcotest.(check int) "result threads through unchanged" 21 v;
  (match M.Span.ring t with
  | [ s ] ->
    Alcotest.(check string) "name" "stage" s.M.name;
    Alcotest.(check int) "work from result" 42 s.M.work
  | _ -> Alcotest.fail "expected one span");
  Alcotest.(check int) "stable work counter" 42
    (M.Counter.value t "span.stage.work");
  (match M.Histogram.get t "span.stage.wall_us" with
  | Some h -> Alcotest.(check int) "one wall sample" 1 (Hist.count h)
  | None -> Alcotest.fail "wall histogram registered");
  Alcotest.(check bool) "wall histogram is volatile" false
    (contains (M.Snapshot.render t) "wall_us")

let test_span_record_exception_safe () =
  let t = M.create () in
  (try ignore (M.Span.record t "boom" (fun () -> raise Exit) : unit)
   with Exit -> ());
  (match M.Span.ring t with
  | [ s ] ->
    Alcotest.(check string) "span still recorded" "boom" s.M.name;
    Alcotest.(check int) "failure work marker" (-1) s.M.work
  | _ -> Alcotest.fail "expected one span");
  (* The stack unwound: the next span is back at depth 0. *)
  M.Span.exit t (M.Span.enter t "after");
  match M.Span.ring t with
  | [ _; s ] -> Alcotest.(check int) "depth reset" 0 s.M.depth
  | _ -> Alcotest.fail "expected two spans"

let test_ring_wraparound () =
  let t = M.create () in
  let n = M.Span.capacity + 6 in
  for i = 0 to n - 1 do
    M.Span.record t "s" ~work:(fun () -> i) unit_task
  done;
  Alcotest.(check int) "dropped count" 6 (M.Span.dropped t);
  let works = List.map (fun s -> s.M.work) (M.Span.ring t) in
  Alcotest.(check int) "ring holds capacity spans" M.Span.capacity
    (List.length works);
  Alcotest.(check int) "oldest survivor" 6 (List.hd works);
  Alcotest.(check int) "newest last" (n - 1) (List.nth works (n - 7));
  Alcotest.(check int) "counters keep every span" n
    (M.Counter.value t "span.s.count")

let test_disabled_spans_are_free () =
  let t = M.disabled in
  M.Span.exit t (M.Span.enter t "never");
  M.Span.record t "never" ~work:(fun () -> 1) unit_task;
  Alcotest.(check int) "nothing in the ring" 0 (List.length (M.Span.ring t));
  Alcotest.(check int) "no counters" 0 (List.length (M.Snapshot.samples t))

(* ---- pipeline spans ---- *)

let tiny_config metrics =
  Config.with_metrics metrics
    (Config.with_detector Vp_hsd.Config.tiny Config.default)

let test_driver_span_coverage () =
  let t = M.create () in
  let config = tiny_config t in
  let img = Program.layout (Gen.random_phased ~seed:3) in
  let p = Vacuum.Driver.profile ~config img in
  let r = Vacuum.Driver.rewrite_of_profile ~config p in
  ignore (Vacuum.Coverage.measure ~config r);
  let spans = M.Span.ring t in
  let names = List.map (fun s -> s.M.name) spans in
  List.iter
    (fun stage ->
      Alcotest.(check bool)
        (stage ^ " span present") true (List.mem stage names))
    [ "profile"; "regions"; "packages"; "link"; "emit"; "coverage" ];
  let profile_span = List.find (fun s -> s.M.name = "profile") spans in
  Alcotest.(check int)
    "profile span work is retired instructions"
    p.Vacuum.Driver.outcome.Emulator.instructions profile_span.M.work;
  Alcotest.(check int) "profile work counter agrees" profile_span.M.work
    (M.Counter.value t "span.profile.work");
  Alcotest.(check bool) "stage counters flushed" true
    (M.Counter.value t "detector.recordings" > 0)

let test_observed_run_is_behaviour_preserving () =
  (* An enabled registry must not change what the pipeline computes. *)
  let img = Program.layout (Gen.random_phased ~seed:11) in
  let run metrics =
    let config = tiny_config metrics in
    let p = Vacuum.Driver.profile ~config img in
    let r = Vacuum.Driver.rewrite_of_profile ~config p in
    let c = Vacuum.Coverage.measure ~config r in
    ( p.Vacuum.Driver.outcome,
      List.length r.Vacuum.Driver.packages,
      c.Vacuum.Coverage.coverage_pct )
  in
  let off = run M.disabled in
  let on_ = run (M.create ()) in
  Alcotest.(check bool) "identical results" true (off = on_)

(* The determinism contract: a registry shared by the tasks of a
   profile → rewrite → coverage matrix at --jobs 1 and --jobs 4 renders
   the same stable snapshot — span completions and work included. *)
let test_stable_snapshot_across_schedules () =
  let cells =
    [
      ("full", tiny_config M.disabled);
      ( "nolink",
        Config.with_detector Vp_hsd.Config.tiny
          (Config.experiment ~inference:true ~linking:false) );
    ]
  in
  let observe jobs =
    let t = M.create () in
    let task seed =
      let name = Printf.sprintf "gen%d" seed in
      let image = Program.layout (Gen.random_phased ~seed) in
      let p =
        M.Span.record t ("profile:" ^ name)
          ~work:(fun p -> p.Vacuum.Driver.outcome.Emulator.instructions)
          (fun () -> Vacuum.Driver.profile ~config:(tiny_config t) image)
      in
      List.iter
        (fun (key, config) ->
          let label = name ^ " [" ^ key ^ "]" in
          let r =
            M.Span.record t ("rewrite:" ^ label) (fun () ->
                Vacuum.Driver.rewrite_of_profile ~config p)
          in
          ignore
            (M.Span.record t ("coverage:" ^ label) (fun () ->
                 Vacuum.Coverage.measure ~config r)))
        cells
    in
    ignore (Pool.map ~jobs task [ 1; 2; 3 ]);
    M.Snapshot.render t
  in
  let seq = observe 1 in
  Alcotest.(check string) "stable snapshot identical across schedules" seq
    (observe 4);
  Alcotest.(check bool) "snapshot covers every task" true
    (contains seq "span_profile_gen1_count_total 1")

(* ---- snapshot ---- *)

let populated () =
  let t = M.create () in
  M.Counter.bump t "session.cache.hits" 12;
  M.Counter.bump t "demote.drop-package" 2;
  M.Histogram.observe t "session.epoch.instructions" 50_000;
  M.Histogram.observe t "session.epoch.instructions" 51_000;
  M.Histogram.observe t "session.epoch.instructions" 1;
  (* volatile metrics must stay out of the stable exposition *)
  M.Counter.bump ~volatile:true t "clock.ticks" 123_456;
  M.Counter.bump ~volatile:true t "pool.tasks" 9;
  M.Histogram.observe ~volatile:true t "span.epoch.wall_us" 777;
  t

let test_render_volatility_classes () =
  let t = populated () in
  let stable = M.Snapshot.render t in
  let full = M.Snapshot.render ~volatile:true t in
  Alcotest.(check bool) "counter rendered" true
    (contains stable "session_cache_hits_total 12");
  Alcotest.(check bool) "hist count rendered" true
    (contains stable "session_epoch_instructions_count 3");
  Alcotest.(check bool) "no volatile marker in stable" false
    (contains stable "# volatile");
  Alcotest.(check bool) "no volatile counter in stable" false
    (contains stable "clock_ticks");
  Alcotest.(check bool) "no wall hist in stable" false
    (contains stable "wall_us");
  Alcotest.(check bool) "volatile marker in full" true
    (contains full "# volatile");
  Alcotest.(check bool) "volatile counter in full" true
    (contains full "clock_ticks_total 123456");
  Alcotest.(check bool) "second volatile counter in full" true
    (contains full "pool_tasks_total 9");
  (* the full render still begins with the stable section *)
  Alcotest.(check bool) "stable is a prefix modulo EOF" true
    (contains full "session_cache_hits_total 12")

let test_snapshot_write_validate_roundtrip () =
  let t = populated () in
  let path = temp ".metrics" in
  M.Snapshot.write t ~path;
  (match M.Snapshot.validate_file ~path with
  | Ok n -> Alcotest.(check bool) "some lines" true (n > 4)
  | Error e -> Alcotest.fail ("valid snapshot rejected: " ^ e));
  (match M.Snapshot.read ~path with
  | Error e -> Alcotest.fail ("roundtrip failed: " ^ e)
  | Ok samples ->
    (match List.assoc_opt "session_cache_hits" samples with
    | Some (M.Snapshot.Counter v) -> Alcotest.(check int) "counter back" 12 v
    | _ -> Alcotest.fail "counter lost");
    (match List.assoc_opt "session_epoch_instructions" samples with
    | Some (M.Snapshot.Hist h) ->
      Alcotest.(check int) "hist count back" 3 (Hist.count h);
      Alcotest.(check int) "hist sum back" 101_001 (Hist.sum h)
    | _ -> Alcotest.fail "histogram lost");
    Alcotest.(check bool) "volatile excluded from default write" true
      (List.assoc_opt "clock_ticks" samples = None));
  Sys.remove path

(* An atomic write into a missing directory fails naming the file
   the caller asked for, not its temp sibling. *)
let test_snapshot_write_unwritable () =
  let dir = temp ".missing" in
  Sys.remove dir;
  let path = Filename.concat dir "m.metrics" in
  match M.Snapshot.write (populated ()) ~path with
  | () -> Alcotest.fail "wrote into a missing directory"
  | exception Sys_error e ->
    Alcotest.(check bool) (e ^ " names the target") true
      (String.starts_with ~prefix:(path ^ ": ") e && not (contains e ".tmp"))

let test_validator_rejections () =
  let check_error name content expect =
    let path = temp ".metrics" in
    write_file path content;
    (match M.Snapshot.validate_file ~path with
    | Ok _ -> Alcotest.fail (name ^ ": accepted")
    | Error e ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: %S mentions %S" name e expect)
        true (contains e expect));
    Sys.remove path
  in
  check_error "wrong meta" "# nope/1\n# EOF\n" "line 1";
  check_error "missing EOF" "# vp-metrics-snapshot/1\nfoo_total 1\n" "EOF";
  check_error "garbage line"
    "# vp-metrics-snapshot/1\nnot a metric line at all!\n# EOF\n" "line 2";
  check_error "non-numeric value"
    "# vp-metrics-snapshot/1\nfoo_total bar\n# EOF\n" "line 2"

(* ---- determinism: stable snapshot across schedules and backends ---- *)

let test_stable_snapshot_jobs_invariant () =
  let render_under jobs =
    let t = M.create () in
    ignore
      (Pool.map ~jobs
         (fun i ->
           M.Counter.bump t "work.items" 1;
           M.Histogram.observe t "work.size" (100 * (i + 1)))
         [ 0; 1; 2; 3; 4; 5; 6; 7 ]);
    M.Snapshot.render t
  in
  let seq = render_under 1 in
  Alcotest.(check string) "jobs 4 = jobs 1" seq (render_under 4);
  Alcotest.(check bool) "work counted" true (contains seq "work_items_total 8")

let test_stable_snapshot_backend_invariant () =
  (* The serve-shaped path: a session instruments the registry while it
     runs; the stable exposition must not depend on the execution
     backend. *)
  let img = Program.layout (Progs.two_phase ~iters_per_phase:3000 ~repeats:2) in
  let render_under backend =
    let t = M.create () in
    let config =
      Config.default
      |> Config.with_detector Vp_hsd.Config.tiny
      |> Config.with_backend backend
      |> Config.with_metrics t
      |> Config.map_session (fun s -> { s with Config.cache_pct = 300.0 })
    in
    ignore (Session.run ~epochs:4 (Session.create ~config img));
    M.Snapshot.render t
  in
  let r = render_under Emulator.Reference in
  Alcotest.(check bool) "epochs observed" true
    (contains r "session_epoch_instructions_count 4");
  Alcotest.(check string) "compiled = reference" r
    (render_under Emulator.Compiled)

(* ---- perfetto ---- *)

let test_perfetto_export () =
  let event name cat pid ts_us dur_us =
    { M.Perfetto.name; cat; pid; tid = 0; ts_us; dur_us }
  in
  let events =
    [
      event "profile:w" "driver" 1 0.0 250_000.0;
      event "rewrite:w" "driver" 1 250_000.0 500_000.0;
      event "epoch-0" "session" 3 10.0 5.0;
    ]
  in
  let path = temp ".json" in
  M.Perfetto.write ~processes:[ (1, "driver"); (3, "session") ] ~path events;
  (match M.Perfetto.validate_file ~path with
  | Ok n ->
    (* 3 complete events + 2 process_name metadata records *)
    Alcotest.(check int) "event count" 5 n
  | Error e -> Alcotest.fail ("perfetto export rejected: " ^ e));
  let s = read_file path in
  Alcotest.(check bool) "schema line" true (contains s "vp-perfetto-trace/1");
  Alcotest.(check bool) "process metadata" true (contains s "process_name");
  Alcotest.(check bool) "span event" true (contains s "profile:w");
  Sys.remove path;
  (* Files that are not valid JSON must not validate: the event array
     needs a comma between events and none after the last. *)
  let head =
    "{\"schema\":\"vp-perfetto-trace/1\",\"displayTimeUnit\":\"ms\",\
     \"traceEvents\":[\n"
  in
  let ev name =
    Printf.sprintf
      "{\"ph\":\"X\",\"name\":\"%s\",\"cat\":\"c\",\"pid\":1,\"tid\":0,\
       \"ts\":0.000,\"dur\":1.000}"
      name
  in
  List.iter
    (fun (what, body, line) ->
      let path = temp ".json" in
      write_file path (head ^ body ^ "]}\n");
      (match M.Perfetto.validate_file ~path with
      | Ok n -> Alcotest.failf "%s accepted (%d events)" what n
      | Error e ->
        Alcotest.(check bool)
          (Printf.sprintf "%s: %S names %s" what e line)
          true (contains e line));
      Sys.remove path)
    [
      ("missing comma", ev "a" ^ "\n" ^ ev "b" ^ "\n", "line 2");
      ("trailing comma", ev "a" ^ ",\n" ^ ev "b" ^ ",\n", "line 3");
    ]

let test_perfetto_points () =
  let path = temp ".json" in
  M.Perfetto.write ~processes:[ (1, "profile") ]
    ~points:
      [
        M.Perfetto.Counter { pid = 1; name = "profile.hdc"; ts = 100; value = 3 };
        M.Perfetto.Instant { pid = 1; name = "detect"; ts = 42; value = 1 };
      ]
    ~path [];
  (match M.Perfetto.validate_file ~path with
  | Ok n -> Alcotest.(check int) "metadata + counter + instant" 3 n
  | Error e -> Alcotest.fail ("counter/instant trace rejected: " ^ e));
  let s = read_file path in
  Alcotest.(check bool) "counter line" true
    (contains s
       {|{"ph":"C","name":"profile.hdc","pid":1,"ts":100,"args":{"value":3}}|});
  Alcotest.(check bool) "instant line" true
    (contains s
       {|{"ph":"i","name":"detect","pid":1,"tid":0,"ts":42,"args":{"value":1}}|});
  Sys.remove path;
  let head =
    "{\"schema\":\"vp-perfetto-trace/1\",\"displayTimeUnit\":\"ms\",\
     \"traceEvents\":[\n"
  in
  List.iter
    (fun (what, line) ->
      let path = temp ".json" in
      write_file path (head ^ line ^ "\n]}\n");
      (match M.Perfetto.validate_file ~path with
      | Ok _ -> Alcotest.failf "%s accepted" what
      | Error e ->
        Alcotest.(check bool) (what ^ " names line 2") true (contains e "line 2"));
      Sys.remove path)
    [
      ("counter without args", {|{"ph":"C","name":"c","pid":1,"ts":5}|});
      ( "counter without value",
        {|{"ph":"C","name":"c","pid":1,"ts":5,"args":{}}|} );
      ( "instant without ts",
        {|{"ph":"i","name":"e","pid":1,"tid":0,"args":{"value":1}}|} );
      ("unknown phase", {|{"ph":"Q","name":"e","pid":1,"tid":0,"ts":5}|});
    ]

let test_span_ring_roundtrip () =
  let t = M.create () in
  M.Span.record t "stage \"one\"" unit_task;
  M.Span.record t "stage2" ~work:(fun () -> 123) unit_task;
  let path = temp ".json" in
  Alcotest.(check int) "spans written" 2 (M.Perfetto.write_spans t ~path);
  (match M.Perfetto.validate_file ~path with
  | Ok n -> Alcotest.(check int) "2 spans + process metadata" 3 n
  | Error e -> Alcotest.fail ("span trace rejected: " ^ e));
  let text = read_file path in
  Alcotest.(check bool) "name escaped" true (contains text "stage \\\"one\\\"");
  let line name =
    List.find
      (fun l -> contains l (Printf.sprintf {|"name":"%s"|} name))
      (String.split_on_char '\n' text)
  in
  Alcotest.(check bool) "work in args" true
    (contains (line "stage2") {|"args":{"work":123}}|});
  Alcotest.(check bool) "no work reads 0" true
    (contains (line {|stage \"one\"|}) {|"args":{"work":0}}|});
  Sys.remove path

(* The complete events of a vp-perfetto-trace/1 file, as
   ((pid, tid), (ts, dur)). *)
let read_x_events path =
  let num line key =
    let k = Printf.sprintf "\"%s\":" key in
    match Vp_util.Io.find_sub line k with
    | None -> Alcotest.failf "no %s in %s" key line
    | Some i ->
      let j = i + String.length k in
      let e = ref j in
      while !e < String.length line && not (String.contains ",}" line.[!e]) do
        incr e
      done;
      float_of_string (String.sub line j (!e - j))
  in
  String.split_on_char '\n' (read_file path)
  |> List.filter (fun l -> contains l {|"ph":"X"|})
  |> List.map (fun l ->
         ( (int_of_float (num l "pid"), int_of_float (num l "tid")),
           (num l "ts", num l "dur") ))

(* Pool tasks each record an outer span over two inner ones.  The first
   three hold their first inner span open until all three are open,
   open in ticket order and close in ticket order, so on a shared track
   those spans would overlap without nesting.  Every (pid, tid) track
   must nest — any two events disjoint or one inside the other, with
   0.002 us of slack for the writer's %.3f rounding — and the top-level
   spans over all tracks must be the six tasks. *)
let test_tracks_nest_under_jobs () =
  let t = M.create () in
  let tickets = Atomic.make 0 and opened = Atomic.make 0
  and closed = Atomic.make 0 in
  let rec wait_until cond =
    if not (cond ()) then begin
      Domain.cpu_relax ();
      wait_until cond
    end
  in
  (* Keeps consecutive clock readings of different tasks apart. *)
  let burn () =
    let r = ref 0 in
    for i = 1 to 200_000 do
      r := !r + i
    done;
    ignore (Sys.opaque_identity !r)
  in
  let task _ =
    let k = Atomic.fetch_and_add tickets 1 in
    let held = k < 3 in
    if held then wait_until (fun () -> Atomic.get opened = k);
    M.Span.record t "outer" (fun () ->
        M.Span.record t "inner" (fun () ->
            burn ();
            if held then begin
              Atomic.incr opened;
              wait_until (fun () -> Atomic.get opened >= 3);
              wait_until (fun () -> Atomic.get closed = k);
              burn ()
            end);
        if held then Atomic.incr closed;
        M.Span.record t "inner" burn)
  in
  ignore (Pool.map ~jobs:3 task (List.init 6 Fun.id));
  let path = temp ".json" in
  Alcotest.(check int) "18 spans written" 18 (M.Perfetto.write_spans t ~path);
  let events = read_x_events path in
  Sys.remove path;
  let slack = 0.002 in
  let inside (ts, dur) (ts', dur') =
    ts' <= ts +. slack && ts +. dur <= ts' +. dur' +. slack
  in
  let disjoint (ts, dur) (ts', dur') =
    ts +. dur <= ts' +. slack || ts' +. dur' <= ts +. slack
  in
  let tracks = List.sort_uniq compare (List.map fst events) in
  let misnested = ref 0 and top = ref 0 in
  List.iter
    (fun track ->
      let evs =
        Array.of_list
          (List.filter_map
             (fun (k, e) -> if k = track then Some e else None)
             events)
      in
      Array.iteri
        (fun i a ->
          Array.iteri
            (fun j b ->
              if i < j && not (disjoint a b || inside a b || inside b a) then
                incr misnested)
            evs;
          (* top level: inside no strictly longer event of the track *)
          if not (Array.exists (fun b -> snd b > snd a && inside a b) evs) then
            incr top)
        evs)
    tracks;
  Alcotest.(check int) "mis-nested pairs" 0 !misnested;
  Alcotest.(check int) "top-level spans over all tracks" 6 !top

(* ---- flight recorder ---- *)

let test_flight_dump () =
  let dir = Filename.temp_file "vp-flight" "" in
  Sys.remove dir;
  let t = M.create ~flight_capacity:4 ~flight_dir:dir () in
  M.Counter.bump t "session.drifts" 3;
  M.Counter.bump ~volatile:true t "clock.ticks" 42;
  (* overflow the ring: only the 4 most recent marks survive *)
  for i = 1 to 6 do
    M.Flight.note t ~kind:"drift" ~label:(string_of_int i)
  done;
  M.Span.record t "profile:w" ~work:(fun () -> 10) unit_task;
  M.Flight.dump t ~reason:"oracle-failure" ~label:"epoch-2" ();
  Alcotest.(check int) "one dump" 1 (M.Flight.dumps t);
  let metrics_file = Filename.concat dir "flight-epoch-2-0.metrics" in
  let spans_file = Filename.concat dir "flight-epoch-2-0.perfetto.json" in
  Alcotest.(check bool) "metrics file written" true (Sys.file_exists metrics_file);
  (* the dump is itself a valid snapshot, and the span ring a valid
     Perfetto trace *)
  (match M.Snapshot.validate_file ~path:metrics_file with
  | Ok _ -> ()
  | Error e -> Alcotest.fail ("flight dump not a valid snapshot: " ^ e));
  (match M.Perfetto.validate_file ~path:spans_file with
  | Ok n -> Alcotest.(check int) "span + process metadata" 2 n
  | Error e -> Alcotest.fail ("flight spans not a valid trace: " ^ e));
  let s = read_file metrics_file in
  Alcotest.(check bool) "reason recorded" true
    (contains s "# reason oracle-failure");
  Alcotest.(check bool) "ring bounded: oldest mark evicted" false
    (contains s "# mark 0 drift 1");
  Alcotest.(check bool) "newest mark kept" true (contains s "drift 6");
  Alcotest.(check bool) "volatile section included" true (contains s "# volatile");
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Sys.rmdir dir

let test_flight_noop_without_dir () =
  let t = M.create () in
  M.Flight.note t ~kind:"demote" ~label:"x";
  M.Flight.dump t ~reason:"verifier-rejection" ~label:"driver" ();
  Alcotest.(check int) "no dump without flight_dir" 0 (M.Flight.dumps t)

let () =
  Alcotest.run "vp_metrics"
    [
      ( "hist",
        [
          Alcotest.test_case "bounds and index" `Quick test_hist_bounds;
          Alcotest.test_case "exact count and sum" `Quick
            test_hist_exact_count_sum;
          Alcotest.test_case "quantiles" `Quick test_hist_quantiles;
        ] );
      ( "registry",
        [
          Alcotest.test_case "counter histogram" `Quick test_registry_ops;
          Alcotest.test_case "disabled registry inert" `Quick
            test_disabled_registry_inert;
          Alcotest.test_case "first registration wins" `Quick
            test_first_registration_wins;
        ] );
      ( "counters",
        [
          Alcotest.test_case "basics" `Quick test_counter_basics;
          Alcotest.test_case "disabled" `Quick test_counter_disabled;
          Alcotest.test_case "bump parallel safety" `Quick
            test_counter_bump_is_parallel_safe;
        ] );
      ( "spans",
        [
          Alcotest.test_case "nesting" `Quick test_span_nesting;
          Alcotest.test_case "record" `Quick test_span_record;
          Alcotest.test_case "record exception safety" `Quick
            test_span_record_exception_safe;
          Alcotest.test_case "ring wraparound" `Quick test_ring_wraparound;
          Alcotest.test_case "disabled no-op" `Quick
            test_disabled_spans_are_free;
        ] );
      ( "pipeline",
        [
          Alcotest.test_case "driver span coverage" `Quick
            test_driver_span_coverage;
          Alcotest.test_case "observation preserves behaviour" `Quick
            test_observed_run_is_behaviour_preserving;
          Alcotest.test_case "snapshot identical across --jobs" `Slow
            test_stable_snapshot_across_schedules;
        ] );
      ( "alloc",
        [
          Alcotest.test_case "disabled spans allocation-free" `Quick
            test_disabled_spans_zero_alloc;
          Alcotest.test_case "disabled path allocation-free" `Quick
            test_disabled_zero_alloc;
        ] );
      ( "snapshot",
        [
          Alcotest.test_case "volatility classes" `Quick
            test_render_volatility_classes;
          Alcotest.test_case "write validate read roundtrip" `Quick
            test_snapshot_write_validate_roundtrip;
          Alcotest.test_case "validator names the line" `Quick
            test_validator_rejections;
          Alcotest.test_case "write into a missing dir" `Quick
            test_snapshot_write_unwritable;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "stable snapshot jobs-invariant" `Quick
            test_stable_snapshot_jobs_invariant;
          Alcotest.test_case "stable snapshot backend-invariant" `Slow
            test_stable_snapshot_backend_invariant;
        ] );
      ( "perfetto",
        [
          Alcotest.test_case "export and validate" `Quick test_perfetto_export;
          Alcotest.test_case "counters and instants" `Quick
            test_perfetto_points;
          Alcotest.test_case "span ring roundtrip" `Quick
            test_span_ring_roundtrip;
          Alcotest.test_case "tracks nest under --jobs" `Quick
            test_tracks_nest_under_jobs;
        ] );
      ( "flight",
        [
          Alcotest.test_case "dump on failure" `Quick test_flight_dump;
          Alcotest.test_case "no-op without dir" `Quick
            test_flight_noop_without_dir;
        ] );
    ]
