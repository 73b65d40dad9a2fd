(* Tests for vp_region: marking from snapshots, the inference
   fix-point, heuristic growth, and the identify driver. *)

module Instr = Vp_isa.Instr
module Op = Vp_isa.Op
module Program = Vp_prog.Program
module Image = Vp_prog.Image
module Cfg = Vp_cfg.Cfg
module Snapshot = Vp_hsd.Snapshot
module T = Vp_region.Temperature
module Region = Vp_region.Region
module Marking = Vp_region.Marking
module Inference = Vp_region.Inference
module Growth = Vp_region.Growth
module Identify = Vp_region.Identify
module B = Vp_prog.Builder
module Progs = Vp_test_support.Progs

let entry pc executed taken = { Snapshot.pc; executed; taken }

let snap branches =
  { Snapshot.id = 0; detected_at = 0; ended_at = 1000; branches }

(* A loop whose body holds a strongly taken-biased branch: the "then"
   arm (fall-through) is rare. *)
let loop_with_rare_arm () =
  let b = B.create () in
  B.func b "main" ~nargs:0 (fun fb _ ->
      let acc = B.vreg fb in
      let i = B.vreg fb in
      let m = B.vreg fb in
      B.li fb acc 0;
      B.for_ fb i ~from:(B.K 0) ~below:(B.K 100) (fun () ->
          B.alu fb Op.Rem m i (B.K 50);
          B.if_ fb (Op.Eq, m, B.K 0)
            (fun () -> B.alu fb Op.Add acc acc (B.K 1000))
            (fun () -> B.alu fb Op.Add acc acc (B.K 1)));
      B.ret fb (Some acc);
      B.halt fb);
  Program.layout (B.program b ~entry:"main")

(* All conditional-branch addresses of a function, ascending. *)
let branch_addrs cfg =
  List.init (Cfg.num_blocks cfg) (Cfg.branch_addr cfg) |> List.filter_map Fun.id

let main_cfg img =
  Cfg.recover img (Option.get (Image.find_sym img "main"))

let arc_to cfg mf b kind =
  List.find (fun (a : Cfg.arc) -> a.Cfg.kind = kind) (Cfg.succs cfg b)
  |> fun a -> (a, Region.arc_temp mf a)

let test_marking_sets_block_and_arcs () =
  let img = loop_with_rare_arm () in
  let cfg = main_cfg img in
  let branches = branch_addrs cfg in
  Alcotest.(check int) "two cond branches" 2 (List.length branches);
  let if_pc = List.nth branches 1 in
  (* Strongly taken-biased: 98/100; fall-through weight 2 is cold. *)
  let region = Region.create img (snap [ entry if_pc 100 98 ]) in
  Marking.mark region;
  let mf = Option.get (Region.find_func region "main") in
  let b = Option.get (Cfg.block_at cfg if_pc) in
  Alcotest.(check bool) "branch block hot" true (T.is_hot (Region.temp mf b));
  Alcotest.(check int) "weight" 100 (Region.weight mf b);
  (match Region.taken_prob mf b with
  | Some p -> Alcotest.(check (float 1e-9)) "taken prob" 0.98 p
  | None -> Alcotest.fail "no taken probability");
  let _, t_taken = arc_to cfg mf b Cfg.Taken in
  let _, t_ft = arc_to cfg mf b Cfg.Fallthrough in
  Alcotest.(check string) "taken arc hot" "hot" (T.name t_taken);
  Alcotest.(check string) "ft arc cold" "cold" (T.name t_ft)

let test_marking_weight_threshold_rule () =
  (* 80/20 with large counts: the 20% direction still exceeds the
     execution threshold (16) and is hot. *)
  let img = loop_with_rare_arm () in
  let cfg = main_cfg img in
  let if_pc = List.nth (branch_addrs cfg) 1 in
  let region = Region.create img (snap [ entry if_pc 400 320 ]) in
  Marking.mark region;
  let mf = Option.get (Region.find_func region "main") in
  let b = Option.get (Cfg.block_at cfg if_pc) in
  let _, t_ft = arc_to cfg mf b Cfg.Fallthrough in
  Alcotest.(check string) "20% with weight 80 is hot" "hot" (T.name t_ft)

let test_inference_propagates () =
  let img = loop_with_rare_arm () in
  let cfg = main_cfg img in
  let if_pc = List.nth (branch_addrs cfg) 1 in
  let head_pc = List.nth (branch_addrs cfg) 0 in
  let region = Region.create img (snap [ entry if_pc 100 98 ]) in
  Marking.mark region;
  let rounds = Inference.run region in
  Alcotest.(check bool) "some rounds" true (rounds >= 1);
  let mf = Option.get (Region.find_func region "main") in
  let if_b = Option.get (Cfg.block_at cfg if_pc) in
  let then_b =
    (List.find (fun (a : Cfg.arc) -> a.Cfg.kind = Cfg.Fallthrough) (Cfg.succs cfg if_b)).Cfg.dst
  in
  let else_b =
    (List.find (fun (a : Cfg.arc) -> a.Cfg.kind = Cfg.Taken) (Cfg.succs cfg if_b)).Cfg.dst
  in
  Alcotest.(check string) "rare then arm cold" "cold" (T.name (Region.temp mf then_b));
  Alcotest.(check string) "common else arm hot" "hot" (T.name (Region.temp mf else_b));
  (* The loop-head branch was missing from the snapshot but is
     recovered by inference. *)
  let head_b = Option.get (Cfg.block_at cfg head_pc) in
  Alcotest.(check string) "loop head inferred hot" "hot" (T.name (Region.temp mf head_b));
  (* Exit arcs exist: at least the loop exit and the cold then arm. *)
  Alcotest.(check bool) "has exit arcs" true (Region.exit_arcs mf <> []);
  Alcotest.(check int) "no conflicts" 0 (Region.conflicts region)

let test_inference_idempotent () =
  let img = loop_with_rare_arm () in
  let cfg = main_cfg img in
  let if_pc = List.nth (branch_addrs cfg) 1 in
  let region = Region.create img (snap [ entry if_pc 100 98 ]) in
  Marking.mark region;
  let _ = Inference.run region in
  let mf = Option.get (Region.find_func region "main") in
  let before = List.init (Cfg.num_blocks cfg) (fun b -> T.name (Region.temp mf b)) in
  let rounds = Inference.run region in
  Alcotest.(check int) "idempotent single round" 1 rounds;
  let after = List.init (Cfg.num_blocks cfg) (fun b -> T.name (Region.temp mf b)) in
  Alcotest.(check (list string)) "unchanged" before after

let test_inference_off_skips_branch_blocks () =
  let img = loop_with_rare_arm () in
  let cfg = main_cfg img in
  let if_pc = List.nth (branch_addrs cfg) 1 in
  let head_pc = List.nth (branch_addrs cfg) 0 in
  let region = Region.create img (snap [ entry if_pc 100 98 ]) in
  Marking.mark region;
  let _ = Inference.run ~block_inference:false region in
  let mf = Option.get (Region.find_func region "main") in
  let head_b = Option.get (Cfg.block_at cfg head_pc) in
  Alcotest.(check string) "loop head stays unknown without inference" "unknown"
    (T.name (Region.temp mf head_b))

let test_call_rule_pulls_callee () =
  (* Snapshot only contains main's loop-head branch; the hot loop body
     calls phase_a, whose prologue must become hot. *)
  let img = Program.layout (Progs.two_phase ~iters_per_phase:10 ~repeats:5) in
  let cfg = main_cfg img in
  let head_pc = List.hd (branch_addrs cfg) in
  let region = Region.create img (snap [ entry head_pc 100 2 ]) in
  Marking.mark region;
  let _ = Inference.run region in
  (match Region.find_func region "phase_a" with
  | Some mf ->
    Alcotest.(check string) "callee prologue hot" "hot"
      (T.name (Region.temp mf (Cfg.entry (Region.cfg mf))))
  | None -> Alcotest.fail "phase_a not pulled into region");
  match Region.find_func region "phase_b" with
  | Some _ -> ()
  | None -> Alcotest.fail "phase_b not pulled into region"

let test_growth_unknown_arc_adoption () =
  (* Two hot blocks joined by an unknown arc: growth adopts it. *)
  let img = loop_with_rare_arm () in
  let cfg = main_cfg img in
  let if_pc = List.nth (branch_addrs cfg) 1 in
  let region = Region.create img (snap [ entry if_pc 100 98 ]) in
  Marking.mark region;
  let mf = Option.get (Region.find_func region "main") in
  (* Manually mark the else successor hot without touching the arc. *)
  let if_b = Option.get (Cfg.block_at cfg if_pc) in
  let taken_arc =
    List.find (fun (a : Cfg.arc) -> a.Cfg.kind = Cfg.Taken) (Cfg.succs cfg if_b)
  in
  (* Reset-free check: the arc is already hot from marking, so pick
     the else block's own out-arc instead. *)
  let else_b = taken_arc.Cfg.dst in
  let _ = Region.set_temp mf else_b T.Hot in
  let out = List.hd (Cfg.succs cfg else_b) in
  let _ = Region.set_temp mf out.Cfg.dst T.Hot in
  Alcotest.(check string) "arc unknown before" "unknown"
    (T.name (Region.arc_temp mf out));
  let _ = Growth.grow region in
  Alcotest.(check string) "arc adopted" "hot" (T.name (Region.arc_temp mf out))

let test_growth_adds_predecessor () =
  let img = loop_with_rare_arm () in
  let cfg = main_cfg img in
  let if_pc = List.nth (branch_addrs cfg) 1 in
  let region = Region.create img (snap [ entry if_pc 100 98 ]) in
  Marking.mark region;
  let _ = Inference.run region in
  let mf = Option.get (Region.find_func region "main") in
  let hot_before = List.length (Region.hot_blocks mf) in
  let adopted = Growth.grow ~max_blocks:1 region in
  let hot_after = List.length (Region.hot_blocks mf) in
  (* The return value also counts arc-only connector adoptions, so it
     bounds the block delta from above. *)
  Alcotest.(check bool) "adopted bounds delta" true (adopted >= hot_after - hot_before);
  Alcotest.(check bool) "blocks grew" true (hot_after >= hot_before)

let test_growth_respects_budget () =
  let img = loop_with_rare_arm () in
  let cfg = main_cfg img in
  let if_pc = List.nth (branch_addrs cfg) 1 in
  let mk max_blocks =
    let region = Region.create img (snap [ entry if_pc 100 98 ]) in
    Marking.mark region;
    let _ = Inference.run region in
    Growth.grow ~max_blocks region
  in
  Alcotest.(check bool) "bigger budget adopts at least as much" true (mk 5 >= mk 1)

let test_identify_end_to_end () =
  let img = Program.layout (Progs.two_phase ~iters_per_phase:10 ~repeats:5) in
  let cfg = main_cfg img in
  let head_pc = List.hd (branch_addrs cfg) in
  let region, stats =
    Identify.identify_with_stats img (snap [ entry head_pc 100 2 ])
  in
  Alcotest.(check bool) "several functions" true (stats.Identify.functions >= 3);
  Alcotest.(check bool) "hot blocks" true (stats.Identify.hot_blocks > 0);
  Alcotest.(check int) "selected counts agree" stats.Identify.selected_instructions
    (Region.selected_instructions region);
  Alcotest.(check bool) "selected nonzero" true (stats.Identify.selected_instructions > 0)

(* Property: marking + inference never produce conflicts on snapshots
   drawn from real branch addresses, and hot blocks always stay a
   subset of all blocks. *)
let prop_inference_no_conflicts =
  QCheck.Test.make ~name:"inference conflict-free on real snapshots" ~count:30
    QCheck.(pair (int_range 10 400) (int_range 1 399))
    (fun (executed, taken_raw) ->
      let taken = min executed taken_raw in
      let img = loop_with_rare_arm () in
      let cfg = main_cfg img in
      let pcs = branch_addrs cfg in
      let branches = List.map (fun pc -> entry pc executed taken) pcs in
      let region = Region.create img (snap branches) in
      Marking.mark region;
      let _ = Inference.run region in
      let _ = Growth.grow region in
      Region.conflicts region = 0)

(* Robustness: marking and the whole identify driver are total over
   adversarial snapshots.  Entries that do not map onto the program
   are skipped and counted, never fatal. *)
let prop_marking_total_on_adversarial =
  QCheck.Test.make ~name:"marking total on adversarial snapshots" ~count:50
    QCheck.(int_bound 10_000)
    (fun seed ->
      let img =
        Program.layout
          (Vp_test_support.Gen.random_phased ~seed:(seed land 0xFF))
      in
      let snaps = Vp_test_support.Gen.adversarial_snapshots ~seed img in
      List.for_all
        (fun s ->
          let region = Region.create img s in
          let stats = Marking.mark_with_stats region in
          let entries = List.length s.Snapshot.branches in
          let accounted =
            stats.Marking.marked + stats.Marking.skipped_no_symbol
            + stats.Marking.skipped_no_block
            + stats.Marking.skipped_not_terminator
          in
          let region', _ = Identify.identify_with_stats img s in
          let (_ : int) = Region.selected_instructions region' in
          accounted = entries)
        snaps)

let test_marking_skips_alien_branches () =
  let img = loop_with_rare_arm () in
  let size = Image.size img in
  (* One real branch, two aliens: past the image and mid-block. *)
  let cfg = main_cfg img in
  let real = List.hd (branch_addrs cfg) in
  let region =
    Region.create img
      (snap [ entry 0 100 50; entry real 100 50; entry (size + 7) 100 50 ])
  in
  let stats = Marking.mark_with_stats region in
  Alcotest.(check int) "marked" 1 stats.Marking.marked;
  Alcotest.(check int) "alien skipped" 1 stats.Marking.skipped_no_symbol;
  Alcotest.(check int) "non-terminator skipped" 1
    (stats.Marking.skipped_not_terminator + stats.Marking.skipped_no_block)

(* A Hot/Cold double assignment keeps (or makes) the temperature Hot
   and counts one conflict each time it is attempted; Unknown never
   overwrites, and only a real change reports true. *)
let test_conflict_counting () =
  let img = loop_with_rare_arm () in
  let region = Region.create img (snap []) in
  let mf = Region.add_func region (Option.get (Image.find_sym img "main")) in
  let a = List.hd (Cfg.arcs (Region.cfg mf)) in
  let set t = Region.set_arc_temp mf a t in
  Alcotest.(check bool) "unknown -> cold changes" true (set T.Cold);
  Alcotest.(check bool) "unknown proposal ignored" false (set T.Unknown);
  Alcotest.(check bool) "cold -> hot changes" true (set T.Hot);
  Alcotest.(check int) "one conflict" 1 (Region.conflicts region);
  Alcotest.(check bool) "hot -> cold stays hot" false (set T.Cold);
  Alcotest.(check string) "still hot" "hot" (T.name (Region.arc_temp mf a));
  Alcotest.(check int) "two conflicts" 2 (Region.conflicts region);
  Alcotest.(check bool) "block unknown -> cold" true (Region.set_temp mf 0 T.Cold);
  Alcotest.(check bool) "block cold -> hot" true (Region.set_temp mf 0 T.Hot);
  Alcotest.(check bool) "block hot -> hot" false (Region.set_temp mf 0 T.Hot);
  Alcotest.(check int) "three conflicts" 3 (Region.conflicts region)

(* Once a region has converged, one more inference run only reads,
   and allocates nothing beyond a small constant per function.  Under
   the rules it converged with, every function's last sweep was quiet,
   so the run skips them all; under block inference off (a subset of
   the rules, so the region is a fix-point of it too) the run sweeps
   every block and arc of every function through the index views.
   The regions are every phase of 134.perl/A and of the first 40
   campaign programs. *)
let test_converged_inference_allocation () =
  let minor_words f =
    let before = Gc.minor_words () in
    f ();
    Gc.minor_words () -. before
  in
  let overhead = minor_words ignore in
  let check_run region ~block_inference =
    let rounds = ref 0 in
    let words =
      minor_words (fun () -> rounds := Inference.run ~block_inference region)
      -. overhead
    in
    let funcs = Region.num_funcs region in
    Alcotest.(check int) "converged" 1 !rounds;
    if words > float_of_int (4 * funcs) then
      Alcotest.failf "%.0f minor words for one converged run over %d functions"
        words funcs
  in
  let check_regions config image =
    let profile = Vacuum.Driver.profile ~config image in
    Alcotest.(check bool) "block inference on" true
      (Vacuum.Config.identify config).Identify.block_inference;
    List.fold_left
      (fun checked (phase : Vp_phase.Phase_log.phase) ->
        let region =
          Identify.identify ~config:(Vacuum.Config.identify config) image
            phase.Vp_phase.Phase_log.representative
        in
        ignore (Inference.run region);
        check_run region ~block_inference:true;
        check_run region ~block_inference:false;
        checked + 1)
      0 (Vp_phase.Phase_log.phases profile.Vacuum.Driver.log)
  in
  let perl =
    List.find (fun w -> Vp_workloads.Registry.name w = "134.perl/A")
      Vp_workloads.Registry.all
  in
  let checked =
    check_regions Vacuum.Config.default
      (Program.layout (perl.Vp_workloads.Registry.program ()))
  in
  let module Campaign = Vp_gen.Campaign in
  let checked = ref checked in
  for i = 0 to 39 do
    let spec = Campaign.spec_of_index ~root_seed:0 i in
    checked :=
      !checked
      + check_regions Campaign.default_config
          (Program.layout
             (Vp_gen.Gen.program ~seed:spec.Campaign.seed spec.Campaign.params))
  done;
  Alcotest.(check bool) "regions checked" true (!checked > 40)

(* Golden region formation: every phase of the first 200 campaign
   programs (campaign configuration) and of the twelve A programs
   (inference and linking on) is identified, and each region is
   written out — its {!Identify.stats} and conflict count, then per
   function, in [Region.funcs] order, every block's temperature,
   weight and taken probability and every arc's temperature and
   weight.  The digests pin region formation byte for byte. *)
let region_text b (region, (stats : Identify.stats)) =
  Printf.bprintf b "stats %d %d %d %d %d conflicts %d\n" stats.Identify.functions
    stats.Identify.hot_blocks stats.Identify.selected_instructions
    stats.Identify.inference_rounds stats.Identify.grown_blocks
    (Region.conflicts region);
  List.iter
    (fun (name, mf) ->
      let cfg = Region.cfg mf in
      Printf.bprintf b "func %s\n" name;
      for blk = 0 to Cfg.num_blocks cfg - 1 do
        Printf.bprintf b " b%d %s %d %s\n" blk
          (T.name (Region.temp mf blk))
          (Region.weight mf blk)
          (match Region.taken_prob mf blk with
          | Some p -> Printf.sprintf "%h" p
          | None -> "-")
      done;
      List.iter
        (fun (a : Cfg.arc) ->
          Printf.bprintf b " a%d>%d%s %s %d\n" a.Cfg.src a.Cfg.dst
            (match a.Cfg.kind with Cfg.Taken -> "t" | Cfg.Fallthrough -> "f")
            (T.name (Region.arc_temp mf a))
            (Region.arc_weight mf a))
        (Cfg.arcs cfg))
    (Region.funcs region)

let regions_digest config images =
  let b = Buffer.create (1 lsl 20) in
  List.iter
    (fun image ->
      let profile = Vacuum.Driver.profile ~config image in
      List.iter
        (fun (phase : Vp_phase.Phase_log.phase) ->
          region_text b
            (Identify.identify_with_stats ~config:(Vacuum.Config.identify config)
               image phase.Vp_phase.Phase_log.representative))
        (Vp_phase.Phase_log.phases profile.Vacuum.Driver.log))
    images;
  Digest.to_hex (Digest.string (Buffer.contents b))

let test_golden_campaign_regions () =
  let module Campaign = Vp_gen.Campaign in
  let images =
    List.init 200 (fun i ->
        let spec = Campaign.spec_of_index ~root_seed:0 i in
        Program.layout
          (Vp_gen.Gen.program ~seed:spec.Campaign.seed spec.Campaign.params))
  in
  Alcotest.(check string) "regions digest" "d0efd94a30a8f23bf2b012ebbb813199"
    (regions_digest Campaign.default_config images)

let test_golden_paper_regions () =
  let module Registry = Vp_workloads.Registry in
  let images =
    List.filter_map
      (fun (w : Registry.t) ->
        if w.Registry.input = "A" then Some (Program.layout (w.Registry.program ()))
        else None)
      Registry.all
  in
  Alcotest.(check int) "twelve A programs" 12 (List.length images);
  Alcotest.(check string) "regions digest" "88f862efd870a31277e00a28e9e7d7a7"
    (regions_digest (Vacuum.Config.experiment ~inference:true ~linking:true) images)

let () =
  Alcotest.run "vp_region"
    [
      ( "marking",
        [
          Alcotest.test_case "blocks and arcs" `Quick test_marking_sets_block_and_arcs;
          Alcotest.test_case "weight threshold rule" `Quick
            test_marking_weight_threshold_rule;
          Alcotest.test_case "skips alien branches" `Quick
            test_marking_skips_alien_branches;
          QCheck_alcotest.to_alcotest prop_marking_total_on_adversarial;
        ] );
      ( "inference",
        [
          Alcotest.test_case "propagates" `Quick test_inference_propagates;
          Alcotest.test_case "idempotent" `Quick test_inference_idempotent;
          Alcotest.test_case "off skips branch blocks" `Quick
            test_inference_off_skips_branch_blocks;
          Alcotest.test_case "call rule" `Quick test_call_rule_pulls_callee;
          Alcotest.test_case "converged run allocation-free" `Quick
            test_converged_inference_allocation;
          Alcotest.test_case "conflict counting" `Quick test_conflict_counting;
          QCheck_alcotest.to_alcotest prop_inference_no_conflicts;
        ] );
      ( "growth",
        [
          Alcotest.test_case "unknown arc adoption" `Quick test_growth_unknown_arc_adoption;
          Alcotest.test_case "adds predecessor" `Quick test_growth_adds_predecessor;
          Alcotest.test_case "respects budget" `Quick test_growth_respects_budget;
        ] );
      ( "identify",
        [
          Alcotest.test_case "end to end" `Quick test_identify_end_to_end;
        ] );
      ( "golden",
        [
          Alcotest.test_case "campaign regions" `Slow test_golden_campaign_regions;
          Alcotest.test_case "paper-A regions" `Slow test_golden_paper_regions;
        ] );
    ]
