(* The benchmark harness: regenerates every table and figure of the
   paper's evaluation section on the synthetic Table 1 workloads, with
   the ablations, the online-session comparison and fleet aggregation.

     dune exec bench/main.exe            # everything
     dune exec bench/main.exe -- fig8    # one experiment
     dune exec bench/main.exe -- --quick # A-inputs only
     dune exec bench/main.exe -- --jobs 4 fig8   # 4 domains
     dune exec bench/main.exe -- --trace bench-trace.json fig8
                                         # vp-perfetto-trace/1 span timeline
     dune exec bench/main.exe -- --backend reference --quick fig10
                                         # functional backend for all runs
     dune exec bench/main.exe -- --help  # flags and experiments

   The workload x configuration matrix is computed up front, one
   Vp_util.Pool.map task per workload on --jobs domains (default = the
   machine's domain count); tables then render from those rows, so
   stdout is byte-identical for every --jobs value.  The span table of
   the run goes to stderr.  The performance ledger is perfbench
   (BENCHMARK.json), not this harness. *)

module Registry = Vp_workloads.Registry
module Program = Vp_prog.Program
module Emulator = Vp_exec.Emulator
module Pipeline = Vp_cpu.Pipeline
module Tabular = Vp_util.Tabular
module Stats = Vp_util.Stats
module Categorize = Vp_phase.Categorize
module Driver = Vacuum.Driver
module Coverage = Vacuum.Coverage

(* The four configurations of Figures 8 and 10, in the paper's bar
   order: inference x linking. *)
let configurations =
  [
    (false, false, "no inf, no link");
    (false, true, "no inf, link");
    (true, false, "inf, no link");
    (true, true, "inf, link");
  ]

(* Which functional emulator produces every retire stream this process
   runs (--backend); all backends are bit-identical, so tables do not
   change with the selection — only wall-clock does. *)
let backend = ref (Vacuum.Config.backend Vacuum.Config.default)

(* Domains for the matrix and the session warm-up (--jobs). *)
let jobs = ref 1

(* The run's one registry: every matrix task is a span in it, and its
   span table is the stderr timing summary. *)
let metrics = Vp_metrics.create ()

let span name ?work f = Vp_metrics.Span.record metrics name ?work f

let config_of ~inference ~linking =
  Vacuum.Config.with_backend !backend
    (Vacuum.Config.experiment ~inference ~linking)

(* The shared profiling runs report into the registry; the per-cell
   configurations do not. *)
let profile_config () =
  Vacuum.Config.with_backend !backend
    (Vacuum.Config.with_metrics metrics Vacuum.Config.default)

(* The machine model is uniform across the matrix. *)
let cpu () = Vacuum.Config.cpu (config_of ~inference:true ~linking:true)

(* A truncated profiling run would silently undercount coverage and
   speedup; fail loudly instead (the driver has already logged it). *)
let fail_truncated name =
  Printf.eprintf
    "bench: profile of %s exhausted its fuel before halting; results would \
     reflect a partial run (raise Config.fuel)\n"
    name;
  exit 2

let layout w = Program.layout (w.Registry.program ())

let profile_span name image =
  span ("profile:" ^ name)
    ~work:(fun p -> p.Driver.outcome.Emulator.instructions)
    (fun () -> Driver.profile ~config:(profile_config ()) image)

(* ------------------------------------------------------------------ *)
(* The workload x configuration matrix, one task per workload in two
   Pool.map passes.  The first lays out each image and runs its one
   shared profile.  The second, when a picked experiment reads them,
   runs each configuration's rewrite and coverage run, then the timing
   simulation of each rewritten image and one shared baseline
   simulation of the original.  Tasks share nothing but the registry,
   so every row is independent of the schedule. *)

type cell = {
  rewrite : Driver.rewrite;
  coverage : Coverage.t;
  optimized : Pipeline.stats option;  (* with timing *)
}

type row = {
  image : Vp_prog.Image.t;
  profile : Driver.profile;
  cells : ((bool * bool) * cell) list;  (* keyed (inference, linking) *)
  baseline : Pipeline.stats option;  (* with timing *)
}

let rows : (string, row) Hashtbl.t = Hashtbl.create 32

let complete_row ~rewrites ~timing (w, image, profile) =
  let name = Registry.name w in
  let build (inference, linking, _) =
    let key = Printf.sprintf "%b%b" inference linking in
    let label = name ^ " [" ^ key ^ "]" in
    let config = config_of ~inference ~linking in
    let rewrite =
      span ("rewrite:" ^ label) (fun () ->
          Driver.rewrite_of_profile ~config profile)
    in
    let coverage =
      span ("coverage:" ^ label)
        ~work:(fun c -> c.Coverage.outcome.Emulator.instructions)
        (fun () -> Coverage.measure ~config rewrite)
    in
    ((inference, linking), key, config, rewrite, coverage)
  in
  let built = if rewrites then List.map build configurations else [] in
  (* The original and every packaged image are timed in one map: on
     the machine's domains when the row runs on the main domain, in
     turn when it is a task of a parallel matrix pass (Pool's nesting
     rule). *)
  let simulate (label, config, image) =
    span ("timing:" ^ name ^ " [" ^ label ^ "]")
      ~work:(fun s -> s.Pipeline.instructions)
      (fun () -> Pipeline.simulate ~config image)
  in
  let timings =
    if not timing then []
    else
      Vp_util.Pool.map ~jobs:(Vp_util.Pool.default_jobs ()) simulate
        (("baseline", cpu (), image)
        :: List.map
             (fun (_, key, config, rewrite, _) ->
               (key, Vacuum.Config.cpu config, Driver.rewritten_image rewrite))
             built)
  in
  let baseline, optimized =
    match timings with
    | b :: os -> (Some b, List.map Option.some os)
    | [] -> (None, List.map (fun _ -> None) built)
  in
  let cells =
    List.map2
      (fun (ik, _, _, rewrite, coverage) optimized ->
        (ik, { rewrite; coverage; optimized }))
      built optimized
  in
  { image; profile; cells; baseline }

let compute_matrix ~rewrites ~timing workloads =
  let map f items = Vp_util.Pool.map ~jobs:!jobs f items in
  let profiled =
    map
      (fun w ->
        let image = span ("image:" ^ Registry.name w) (fun () -> layout w) in
        (w, image, profile_span (Registry.name w) image))
      workloads
  in
  List.iter
    (fun (w, _, p) ->
      if p.Driver.truncated then fail_truncated (Registry.name w))
    profiled;
  (* The rest of a chain costs about its profile's instruction count:
     longest first, so the last task to finish is a short one. *)
  let by_cost =
    List.stable_sort
      (fun (_, _, a) (_, _, b) ->
        compare b.Driver.outcome.Emulator.instructions
          a.Driver.outcome.Emulator.instructions)
      profiled
  in
  List.iter2
    (fun (w, _, _) row -> Hashtbl.replace rows (Registry.name w) row)
    by_cost
    (map (complete_row ~rewrites ~timing) by_cost)

let row_of w = Hashtbl.find rows (Registry.name w)
let profile_of w = (row_of w).profile
let cell_of w ~inference ~linking = List.assoc (inference, linking) (row_of w).cells
let rewrite_of w ~inference ~linking = (cell_of w ~inference ~linking).rewrite
let coverage_of w ~inference ~linking = (cell_of w ~inference ~linking).coverage

let optimized_of w ~inference ~linking =
  Option.get (cell_of w ~inference ~linking).optimized

(* When no picked experiment reads timing (ablation-sink alone), the
   baseline is simulated on demand. *)
let baseline_of w =
  let row = row_of w in
  match row.baseline with
  | Some b -> b
  | None -> Pipeline.simulate ~config:(cpu ()) row.image

(* ------------------------------------------------------------------ *)

let heading title =
  Printf.printf "\n================================================================\n";
  Printf.printf "%s\n" title;
  Printf.printf "================================================================\n"

let table1 workloads =
  heading "Table 1: benchmarks and inputs";
  let t =
    Tabular.create
      ~header:
        [
          ("Benchmark", Tabular.Left);
          ("Input", Tabular.Left);
          ("# of Inst", Tabular.Right);
          ("Cond branches", Tabular.Right);
          ("Static size", Tabular.Right);
        ]
  in
  List.iter
    (fun w ->
      let p = profile_of w in
      let o = p.Vacuum.Driver.outcome in
      Tabular.add_row t
        [
          w.Registry.bench;
          w.Registry.input;
          Printf.sprintf "%.1fM" (float_of_int o.Emulator.instructions /. 1e6);
          Printf.sprintf "%.2fM" (float_of_int o.Emulator.cond_branches /. 1e6);
          string_of_int (Vp_prog.Image.size p.Vacuum.Driver.image);
        ])
    workloads;
  Tabular.print t

let table2 () =
  heading "Table 2: simulated EPIC machine model";
  Format.printf "%a@." Vp_cpu.Config.pp Vp_cpu.Config.default;
  let d = Vp_hsd.Config.default in
  let t = Tabular.create ~header:[ ("HSD parameter", Tabular.Left); ("Value", Tabular.Right) ] in
  Tabular.add_row t [ "BBB associativity"; Printf.sprintf "%d-way" d.Vp_hsd.Config.assoc ];
  Tabular.add_row t [ "Num BBB sets"; string_of_int d.Vp_hsd.Config.sets ];
  Tabular.add_row t [ "Candidate branch threshold"; string_of_int d.Vp_hsd.Config.candidate_threshold ];
  Tabular.add_row t [ "Refresh timer interval"; Printf.sprintf "%d br" d.Vp_hsd.Config.refresh_interval ];
  Tabular.add_row t [ "Clear timer interval"; Printf.sprintf "%d br" d.Vp_hsd.Config.clear_interval ];
  Tabular.add_row t [ "Hot spot detection cntr size"; Printf.sprintf "%d bits" d.Vp_hsd.Config.hdc_bits ];
  Tabular.add_row t [ "Hot spot detection cntr inc"; string_of_int d.Vp_hsd.Config.hdc_inc ];
  Tabular.add_row t [ "Hot spot detection cntr dec"; string_of_int d.Vp_hsd.Config.hdc_dec ];
  Tabular.add_row t [ "Exec and taken counter size"; Printf.sprintf "%d bits" d.Vp_hsd.Config.counter_bits ];
  Tabular.print t

let fig8 workloads =
  heading "Figure 8: percent of dynamic instructions from within packages";
  let t =
    Tabular.create
      ~header:
        (("Benchmark", Tabular.Left)
        :: List.map (fun (_, _, name) -> (name, Tabular.Right)) configurations
        @ [ ("equivalent", Tabular.Right) ])
  in
  let sums = Array.make (List.length configurations) 0.0 in
  List.iter
    (fun w ->
      let cells, all_equiv =
        List.fold_left
          (fun (cells, equiv) (inference, linking, _) ->
            let c = coverage_of w ~inference ~linking in
            (cells @ [ c ], equiv && c.Vacuum.Coverage.equivalent))
          ([], true) configurations
      in
      List.iteri
        (fun i c -> sums.(i) <- sums.(i) +. c.Vacuum.Coverage.coverage_pct)
        cells;
      Tabular.add_row t
        (Registry.name w
        :: List.map (fun c -> Tabular.cell_pct c.Vacuum.Coverage.coverage_pct) cells
        @ [ (if all_equiv then "yes" else "NO") ]))
    workloads;
  Tabular.add_separator t;
  let n = float_of_int (List.length workloads) in
  Tabular.add_row t
    ("average" :: Array.to_list (Array.map (fun s -> Tabular.cell_pct (s /. n)) sums));
  Tabular.print t

let table3 workloads =
  heading "Table 3: code expansion (full configuration)";
  let t =
    Tabular.create
      ~header:
        [
          ("Benchmark", Tabular.Left);
          ("% Incr in size", Tabular.Right);
          ("% Static inst selected", Tabular.Right);
          ("Replication", Tabular.Right);
        ]
  in
  let incrs = ref [] in
  let selects = ref [] in
  List.iter
    (fun w ->
      let r = rewrite_of w ~inference:true ~linking:true in
      let e = Vacuum.Expansion.measure r in
      incrs := e.Vacuum.Expansion.increase_pct :: !incrs;
      selects := e.Vacuum.Expansion.selected_pct :: !selects;
      Tabular.add_row t
        [
          Registry.name w;
          Tabular.cell_pct e.Vacuum.Expansion.increase_pct;
          Tabular.cell_pct e.Vacuum.Expansion.selected_pct;
          Tabular.cell_float ~decimals:2 e.Vacuum.Expansion.replication;
        ])
    workloads;
  Tabular.add_separator t;
  Tabular.add_row t
    [
      "average";
      Tabular.cell_pct (Stats.mean !incrs);
      Tabular.cell_pct (Stats.mean !selects);
    ];
  Tabular.print t

let fig9 workloads =
  heading "Figure 9: categorisation of hot spot branch behaviour (% of dynamic branches)";
  let t =
    Tabular.create
      ~header:
        (("Benchmark", Tabular.Left)
        :: List.map
             (fun c -> (Categorize.category_name c, Tabular.Right))
             Categorize.all_categories)
  in
  List.iter
    (fun w ->
      let p = profile_of w in
      let ws =
        Categorize.weighted p.Vacuum.Driver.log ~dynamic:p.Vacuum.Driver.aggregate
      in
      Tabular.add_row t
        (Registry.name w :: List.map (fun (_, pct) -> Tabular.cell_pct pct) ws))
    workloads;
  Tabular.print t

let fig10 workloads =
  heading "Figure 10: speedup from package relayout and rescheduling";
  let t =
    Tabular.create
      ~header:
        (("Benchmark", Tabular.Left)
        :: List.map (fun (_, _, name) -> (name, Tabular.Right)) configurations)
  in
  let per_config = Array.make (List.length configurations) [] in
  List.iter
    (fun w ->
      let baseline = baseline_of w in
      let cells =
        List.mapi
          (fun i (inference, linking, _) ->
            let optimized = optimized_of w ~inference ~linking in
            let s = Vp_cpu.Pipeline.speedup ~baseline ~optimized in
            per_config.(i) <- s :: per_config.(i);
            s)
          configurations
      in
      Tabular.add_row t
        (Registry.name w :: List.map (Tabular.cell_float ~decimals:3) cells))
    workloads;
  Tabular.add_separator t;
  Tabular.add_row t
    ("average"
    :: Array.to_list
         (Array.map (fun l -> Tabular.cell_float ~decimals:3 (Stats.mean l)) per_config));
  Tabular.print t

(* ------------------------------------------------------------------ *)
(* Ablations for the design choices called out in DESIGN.md. *)

(* Inference only matters when the BBB actually loses branches.  The
   full-size table (2048 entries) never conflicts on these workloads,
   so this ablation re-runs the coverage experiment under a
   16-entry BBB where contention is real. *)
let ablation_bbb workloads =
  heading
    "Ablation: inference under BBB contention (16-entry BBB, coverage %)";
  let small_bbb =
    { Vp_hsd.Config.default with Vp_hsd.Config.sets = 4; candidate_threshold = 16 }
  in
  let t =
    Tabular.create
      ~header:
        [
          ("Benchmark", Tabular.Left);
          ("no inference", Tabular.Right);
          ("with inference", Tabular.Right);
          ("delta", Tabular.Right);
        ]
  in
  let deltas = ref [] in
  List.iter
    (fun w ->
      let base_config =
        Vacuum.Config.with_detector small_bbb Vacuum.Config.default
      in
      let profile = Vacuum.Driver.profile ~config:base_config (layout w) in
      if profile.Vacuum.Driver.truncated then
        fail_truncated (Registry.name w ^ " [small-bbb]");
      let coverage inference =
        let config =
          Vacuum.Config.with_detector small_bbb
            (config_of ~inference ~linking:true)
        in
        (Vacuum.Coverage.measure ~config
           (Vacuum.Driver.rewrite_of_profile ~config profile))
          .Vacuum.Coverage.coverage_pct
      in
      let off = coverage false in
      let on_ = coverage true in
      deltas := (on_ -. off) :: !deltas;
      Tabular.add_row t
        [
          Registry.name w;
          Tabular.cell_pct off;
          Tabular.cell_pct on_;
          Printf.sprintf "%+.1f" (on_ -. off);
        ])
    workloads;
  Tabular.add_separator t;
  Tabular.add_row t
    [ "average delta"; ""; ""; Printf.sprintf "%+.1f" (Stats.mean !deltas) ];
  Tabular.print t

(* Contribution of the heuristic-growth machinery: entry predecessor
   growth (MAX_BLOCKS) and opportunistic connector adoption. *)
let ablation_growth workloads =
  heading "Ablation: heuristic growth (coverage %, full configuration)";
  let variants =
    [
      ("no growth", 0, 0);
      ("connectors only", 0, 6);
      ("entries only (MAX_BLOCKS=1)", 1, 0);
      ("paper (MAX_BLOCKS=1 + connectors)", 1, 6);
    ]
  in
  let t =
    Tabular.create
      ~header:
        (("Benchmark", Tabular.Left)
        :: List.map (fun (n, _, _) -> (n, Tabular.Right)) variants)
  in
  let sums = Array.make (List.length variants) 0.0 in
  List.iter
    (fun w ->
      let profile = profile_of w in
      let cells =
        List.mapi
          (fun i (_, max_blocks, max_connector) ->
            let base = config_of ~inference:true ~linking:true in
            let config =
              Vacuum.Config.map_identify
                (fun identify ->
                  { identify with Vp_region.Identify.max_blocks; max_connector })
                base
            in
            let c =
              Vacuum.Coverage.measure ~config
                (Vacuum.Driver.rewrite_of_profile ~config profile)
            in
            sums.(i) <- sums.(i) +. c.Vacuum.Coverage.coverage_pct;
            c.Vacuum.Coverage.coverage_pct)
          variants
      in
      Tabular.add_row t (Registry.name w :: List.map Tabular.cell_pct cells))
    workloads;
  Tabular.add_separator t;
  let n = float_of_int (List.length workloads) in
  Tabular.add_row t
    ("average" :: Array.to_list (Array.map (fun s -> Tabular.cell_pct (s /. n)) sums));
  Tabular.print t

(* The baseline the paper argues against: one package set formed from
   the whole-run aggregate profile, with no phase sensitivity. *)
let baseline_aggregate workloads =
  heading
    "Baseline: aggregate-profile packing vs phase packing (full configuration)";
  let t =
    Tabular.create
      ~header:
        [
          ("Benchmark", Tabular.Left);
          ("agg coverage", Tabular.Right);
          ("phase coverage", Tabular.Right);
          ("agg speedup", Tabular.Right);
          ("phase speedup", Tabular.Right);
        ]
  in
  let agg_speeds = ref [] in
  let phase_speeds = ref [] in
  List.iter
    (fun w ->
      let profile = profile_of w in
      let config = config_of ~inference:true ~linking:true in
      let agg = Vacuum.Aggregate.rewrite ~config profile in
      let agg_cov = Vacuum.Coverage.measure ~config agg in
      let phase_cov = coverage_of w ~inference:true ~linking:true in
      let baseline = baseline_of w in
      let time r =
        Vp_cpu.Pipeline.speedup ~baseline
          ~optimized:
            (Vp_cpu.Pipeline.simulate ~config:(Vacuum.Config.cpu config)
               (Vacuum.Driver.rewritten_image r))
      in
      let agg_speed = time agg in
      let phase_speed =
        Vp_cpu.Pipeline.speedup ~baseline
          ~optimized:(optimized_of w ~inference:true ~linking:true)
      in
      agg_speeds := agg_speed :: !agg_speeds;
      phase_speeds := phase_speed :: !phase_speeds;
      Tabular.add_row t
        [
          Registry.name w;
          Tabular.cell_pct agg_cov.Vacuum.Coverage.coverage_pct;
          Tabular.cell_pct phase_cov.Vacuum.Coverage.coverage_pct;
          Tabular.cell_float ~decimals:3 agg_speed;
          Tabular.cell_float ~decimals:3 phase_speed;
        ])
    workloads;
  Tabular.add_separator t;
  Tabular.add_row t
    [
      "average";
      "";
      "";
      Tabular.cell_float ~decimals:3 (Stats.mean !agg_speeds);
      Tabular.cell_float ~decimals:3 (Stats.mean !phase_speeds);
    ];
  Tabular.print t

(* Fleet-scale profile aggregation: each workload's profiling run seen
   through per-machine noise on N emulated user machines, aggregated
   into one consensus profile per binary.  The table is deterministic
   (exact sums, order-fixed digests); each merge is an
   [aggregate:WORKLOAD] span whose work is its snapshot count, so its
   throughput shows in the stderr span table and the --trace file. *)

let fleet_aggregate workloads ~quick ~jobs =
  heading "Fleet aggregation: consensus profile per binary (emulated fleet)";
  let runs = if quick then 64 else 256 in
  let t =
    Tabular.create
      ~header:
        [
          ("Benchmark", Tabular.Left);
          ("runs", Tabular.Right);
          ("snapshots", Tabular.Right);
          ("classified", Tabular.Right);
          ("dropped", Tabular.Right);
          ("classes", Tabular.Right);
          ("digest", Tabular.Right);
        ]
  in
  List.iter
    (fun w ->
      let base = profile_of w in
      let wire = Vacuum.Fleet.emulate_runs ~runs base in
      let fleet =
        span ("aggregate:" ^ Registry.name w)
          ~work:(fun f -> f.Vacuum.Fleet.stats.Vp_aggregate.Shard.snapshots)
          (fun () -> Vacuum.Fleet.aggregate ~jobs ~base wire)
      in
      let stats = fleet.Vacuum.Fleet.stats in
      Tabular.add_row t
        [
          Registry.name w;
          string_of_int stats.Vp_aggregate.Shard.runs;
          string_of_int stats.Vp_aggregate.Shard.snapshots;
          string_of_int stats.Vp_aggregate.Shard.classified;
          string_of_int stats.Vp_aggregate.Shard.dropped;
          string_of_int (List.length fleet.Vacuum.Fleet.classes);
          Printf.sprintf "%016x" fleet.Vacuum.Fleet.digest;
        ])
    workloads;
  Tabular.print t

(* Superblock formation: chain merging + speculative hoisting — this
   repository's extension of the paper's "basic rescheduling",
   exercising the region-level scheduling scope Section 2 motivates. *)
let ablation_superblock workloads =
  heading "Ablation: superblock formation (beyond the paper's study)";
  let t =
    Tabular.create
      ~header:
        [
          ("Benchmark", Tabular.Left);
          ("paper opt", Tabular.Right);
          ("+superblocks", Tabular.Right);
        ]
  in
  let base_speeds = ref [] in
  let sb_speeds = ref [] in
  List.iter
    (fun w ->
      let profile = profile_of w in
      let paper_cfg = config_of ~inference:true ~linking:true in
      let sb_cfg = Vacuum.Config.with_opt Vp_opt.Opt.default paper_cfg in
      let baseline = baseline_of w in
      let time config =
        let r = Vacuum.Driver.rewrite_of_profile ~config profile in
        Vp_cpu.Pipeline.speedup ~baseline
          ~optimized:
            (Vp_cpu.Pipeline.simulate ~config:(Vacuum.Config.cpu config)
               (Vacuum.Driver.rewritten_image r))
      in
      let a = time paper_cfg in
      let b = time sb_cfg in
      base_speeds := a :: !base_speeds;
      sb_speeds := b :: !sb_speeds;
      Tabular.add_row t
        [
          Registry.name w;
          Tabular.cell_float ~decimals:3 a;
          Tabular.cell_float ~decimals:3 b;
        ])
    workloads;
  Tabular.add_separator t;
  Tabular.add_row t
    [
      "average";
      Tabular.cell_float ~decimals:3 (Stats.mean !base_speeds);
      Tabular.cell_float ~decimals:3 (Stats.mean !sb_speeds);
    ];
  Tabular.print t

(* Exit-block sinking (Section 5.4's suggested redundancy elimination,
   not applied in the paper's own study). *)
let ablation_sink workloads =
  heading "Ablation: exit-block sinking (full configuration)";
  let t =
    Tabular.create
      ~header:
        [
          ("Benchmark", Tabular.Left);
          ("sunk", Tabular.Right);
          ("deleted", Tabular.Right);
          ("speedup w/o sink", Tabular.Right);
          ("speedup w/ sink", Tabular.Right);
        ]
  in
  List.iter
    (fun w ->
      let profile = profile_of w in
      let base = config_of ~inference:true ~linking:true in
      let sink_cfg =
        Vacuum.Config.with_opt Vp_opt.Opt.with_sinking base
      in
      (* Count what the pass does on the linked packages. *)
      let r_plain = rewrite_of w ~inference:true ~linking:true in
      let sunk = ref 0 in
      let deleted = ref 0 in
      List.iter
        (fun p ->
          let _, stats = Vp_opt.Sink.sink p in
          sunk := !sunk + stats.Vp_opt.Sink.sunk;
          deleted := !deleted + stats.Vp_opt.Sink.deleted)
        r_plain.Vacuum.Driver.packages;
      let r_sink = Vacuum.Driver.rewrite_of_profile ~config:sink_cfg profile in
      let baseline = baseline_of w in
      let time r =
        Vp_cpu.Pipeline.speedup ~baseline
          ~optimized:
            (Vp_cpu.Pipeline.simulate ~config:(Vacuum.Config.cpu base)
               (Vacuum.Driver.rewritten_image r))
      in
      Tabular.add_row t
        [
          Registry.name w;
          string_of_int !sunk;
          string_of_int !deleted;
          Tabular.cell_float ~decimals:3 (time r_plain);
          Tabular.cell_float ~decimals:3 (time r_sink);
        ])
    workloads;
  Tabular.print t

(* ------------------------------------------------------------------ *)
(* Online re-optimization: Vacuum.Session epochs against the one-shot
   post-link rewrite.  The session column is live coverage — the share
   of instructions actually retired from package space while the
   workload ran under the patch-profile-repackage loop — so it also
   pays for the epochs spent profiling before the first activation. *)

let session_exp workloads =
  heading "Session: online re-optimization loop vs single-shot rewrite";
  let config = config_of ~inference:true ~linking:true in
  let sessions =
    Vp_util.Pool.map ~jobs:!jobs
      (fun w ->
        span
          ("session:" ^ Registry.name w ^ " [truetrue]")
          ~work:(fun r -> r.Vacuum.Session.instructions)
          (fun () ->
            Vacuum.Session.run
              (Vacuum.Session.create ~config (row_of w).image)))
      workloads
  in
  let t =
    Tabular.create
      ~header:
        [
          ("Benchmark", Tabular.Left);
          ("single-shot", Tabular.Right);
          ("session", Tabular.Right);
          ("epochs", Tabular.Right);
          ("activations", Tabular.Right);
          ("cache", Tabular.Right);
          ("equivalent", Tabular.Right);
        ]
  in
  let single_sum = ref 0.0 and session_sum = ref 0.0 in
  List.iter2
    (fun w r ->
      let c = coverage_of w ~inference:true ~linking:true in
      single_sum := !single_sum +. c.Vacuum.Coverage.coverage_pct;
      session_sum := !session_sum +. r.Vacuum.Session.coverage_pct;
      Tabular.add_row t
        [
          Registry.name w;
          Tabular.cell_pct c.Vacuum.Coverage.coverage_pct;
          Tabular.cell_pct r.Vacuum.Session.coverage_pct;
          string_of_int (List.length r.Vacuum.Session.epochs);
          string_of_int r.Vacuum.Session.activations;
          string_of_int r.Vacuum.Session.final_cache_entries;
          (match r.Vacuum.Session.equivalent with
          | Some true -> "yes"
          | Some false -> "NO"
          | None -> "-");
        ])
    workloads sessions;
  Tabular.add_separator t;
  let n = float_of_int (List.length workloads) in
  Tabular.add_row t
    [
      "average";
      Tabular.cell_pct (!single_sum /. n);
      Tabular.cell_pct (!session_sum /. n);
      ""; ""; ""; "";
    ];
  Tabular.print t

(* ------------------------------------------------------------------ *)

(* What each experiment reads from the matrix: [None] when it reads
   no matrix row at all, otherwise
   whether it also reads the rewrites/coverages and the timing
   simulations. *)
let needs = function
  | "table2" | "ablation-bbb" -> None
  | "fig8" | "table3" | "ablation-sink" | "session" -> Some (true, false)
  | "fig10" | "baseline-aggregate" | "ablation-superblock" -> Some (true, true)
  | _ -> Some (false, false)

(* ------------------------------------------------------------------ *)
(* Command line: one Vp_cli.Spec flag table, the same parser and help
   renderer as vpack's, with the experiments as positionals. *)

module Spec = Vp_cli.Spec

let experiments =
  [
    "table1"; "table2"; "fig8"; "table3"; "fig9"; "fig10";
    "baseline-aggregate"; "aggregate"; "ablation-bbb"; "ablation-growth";
    "ablation-sink"; "ablation-superblock"; "session";
  ]

let cli =
  Spec.cmd ~name:""
    ~doc:
      "Regenerate the paper's tables and figures on the Table 1 workloads.  \
       Stdout is byte-identical for every --jobs value and backend; the \
       span timings go to stderr."
    ~positional:
      {
        Spec.pos_docv = "EXPERIMENT...";
        pos_doc =
          "Experiments to run, in order (default: all): "
          ^ String.concat " " experiments ^ ".";
        pos_required = false;
      }
    ~exits:[ (0, "success"); (2, "command-line error or a truncated profile") ]
    ~flags:
      [
        Spec.flag ~kind:Spec.Bool ~doc:"A-input workloads only." [ "quick" ];
        Vp_cli.Vpack.jobs_flag;
        Vp_cli.Vpack.backend_flag;
        Spec.flag ~kind:Spec.Value ~docv:"FILE"
          ~doc:"Record pipeline spans as a vp-perfetto-trace/1 timeline to FILE."
          [ "trace" ];
      ]
    (fun _ -> ())

let cli_tool =
  { Spec.tool_name = "bench"; version = ""; tool_doc = ""; cmds = [ cli ] }

(* Parse the command line, or print usage and exit 2 — an unknown flag,
   a bad value and an unknown experiment alike, all before minutes of
   profiling work. *)
let parse_args () =
  let usage_error msg =
    Printf.eprintf "bench: %s\n\n%s" msg (Spec.cmd_help cli_tool cli);
    exit 2
  in
  match Spec.parse cli (List.tl (Array.to_list Sys.argv)) with
  | Error e -> usage_error e
  | Ok m when Spec.flag_set m "help" ->
    print_string (Spec.cmd_help cli_tool cli);
    exit 0
  | Ok m -> (
    match
      List.find_opt
        (fun pick -> not (List.mem pick experiments))
        (Spec.positional m)
    with
    | Some pick -> usage_error (Printf.sprintf "unknown experiment '%s'" pick)
    | None -> m)

let () =
  Vp_cli.Vpack.setup_logs ();
  let m = parse_args () in
  backend := Vp_cli.Vpack.resolve_backend m;
  jobs := Vp_cli.Vpack.resolve_jobs m;
  let jobs = !jobs in
  let trace_path = Spec.value m "trace" in
  let quick = Spec.flag_set m "quick" in
  let workloads =
    if quick then List.filter (fun w -> w.Registry.input = "A") Registry.all
    else Registry.all
  in
  let run = function
    | "table1" -> table1 workloads
    | "table2" -> table2 ()
    | "fig8" -> fig8 workloads
    | "table3" -> table3 workloads
    | "fig9" -> fig9 workloads
    | "fig10" -> fig10 workloads
    | "baseline-aggregate" -> baseline_aggregate workloads
    | "aggregate" -> fleet_aggregate workloads ~quick ~jobs
    | "ablation-bbb" -> ablation_bbb workloads
    | "ablation-growth" -> ablation_growth workloads
    | "ablation-sink" -> ablation_sink workloads
    | "ablation-superblock" -> ablation_superblock workloads
    | "session" -> session_exp workloads
    | other -> invalid_arg ("bench: no experiment " ^ other)
  in
  let picks =
    match Spec.positional m with [] -> experiments | picks -> picks
  in
  let t0 = Unix.gettimeofday () in
  (* Compute the matrix in parallel before any table renders: the union
     of what the picked experiments read. *)
  let needed = List.filter_map needs picks in
  if needed <> [] then
    compute_matrix
      ~rewrites:(List.exists fst needed)
      ~timing:(List.exists snd needed)
      workloads;
  List.iter run picks;
  (match trace_path with
  | Some path -> ignore (Vp_metrics.Perfetto.write_spans metrics ~path : int)
  | None -> ());
  Printf.eprintf "\nspans (jobs=%d, %.3f s wall):\n%s" jobs
    (Unix.gettimeofday () -. t0)
    (Tabular.render (Vp_metrics.Span.table metrics))
