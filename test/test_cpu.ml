(* Tests for vp_cpu: cache model, predictors, and the trace-driven
   pipeline timing model. *)

module Config = Vp_cpu.Config
module Cache = Vp_cpu.Pipeline.Cache
module Predictor = Vp_cpu.Pipeline.Predictor
module Pipeline = Vp_cpu.Pipeline
module Program = Vp_prog.Program
module Progs = Vp_test_support.Progs

let small_cache = { Config.size_bytes = 1024; line_bytes = 64; assoc = 2 }

let test_cache_cold_miss_then_hit () =
  let c = Cache.create small_cache in
  Alcotest.(check bool) "cold miss" false (Cache.access c ~addr:0);
  Alcotest.(check bool) "hit" true (Cache.access c ~addr:0);
  Alcotest.(check bool) "same line hit" true (Cache.access c ~addr:63);
  Alcotest.(check bool) "next line miss" false (Cache.access c ~addr:64);
  Alcotest.(check int) "two misses" 2 (Cache.misses c);
  Alcotest.(check int) "four accesses" 4 (Cache.accesses c)

let test_cache_lru_eviction () =
  (* 1024B / 64B lines = 16 lines, 2-way -> 8 sets.  Lines mapping to
     set 0: addresses 0, 512, 1024 ... *)
  let c = Cache.create small_cache in
  ignore (Cache.access c ~addr:0);
  ignore (Cache.access c ~addr:512);
  (* Touch 0 so 512 becomes LRU. *)
  ignore (Cache.access c ~addr:0);
  ignore (Cache.access c ~addr:1024);
  (* 512 evicted; 0 still resident. *)
  Alcotest.(check bool) "0 retained" true (Cache.access c ~addr:0);
  Alcotest.(check bool) "512 evicted" false (Cache.access c ~addr:512)

let test_cache_miss_rate () =
  let c = Cache.create small_cache in
  for i = 0 to 99 do
    ignore (Cache.access c ~addr:(i * 8))
  done;
  Alcotest.(check int) "accesses" 100 (Cache.accesses c);
  Alcotest.(check bool) "spatial locality" true (Cache.misses c < 20);
  Cache.reset c;
  Alcotest.(check int) "stats reset" 0 (Cache.accesses c)

(* The cache against a list-based true-LRU reference: each set holds
   its lines most recent first and keeps [assoc] of them.  Line streams
   are drawn from twice the capacity, so there are hits, repeat hits in
   the most-recent slot, and evictions; one set count is a power of two
   and one is not. *)
let prop_cache_true_lru =
  let gen =
    QCheck.Gen.(
      oneofl [ 1; 2; 4; 8 ] >>= fun assoc ->
      oneofl [ 4; 3 ] >>= fun sets ->
      list_size (int_range 1 300) (int_bound ((2 * sets * assoc) - 1))
      >|= fun lines -> (assoc, sets, lines))
  in
  let print (assoc, sets, lines) =
    Printf.sprintf "assoc %d, sets %d, lines [%s]" assoc sets
      (String.concat "; " (List.map string_of_int lines))
  in
  QCheck.Test.make ~name:"true LRU reference" ~count:300
    (QCheck.make ~print gen)
    (fun (assoc, sets, lines) ->
      let line_bytes = 64 in
      let c =
        Cache.create
          { Config.size_bytes = sets * assoc * line_bytes; line_bytes; assoc }
      in
      let model = Array.make sets [] in
      let misses = ref 0 in
      let same =
        List.for_all
          (fun line ->
            let set = line mod sets in
            let hit = List.mem line model.(set) in
            if not hit then incr misses;
            model.(set) <-
              List.filteri
                (fun i _ -> i < assoc)
                (line :: List.filter (( <> ) line) model.(set));
            Cache.access c ~addr:(line * line_bytes) = hit)
          lines
      in
      same && Cache.misses c = !misses
      && Cache.accesses c = List.length lines)

let test_gshare_learns_loop () =
  let p = Predictor.create Config.default in
  (* A 99%-taken loop branch: after warmup the predictor is nearly
     perfect. *)
  for i = 1 to 2000 do
    ignore (Predictor.predict_branch p ~pc:400 ~taken:(i mod 100 <> 0))
  done;
  let s = Predictor.stats p in
  Alcotest.(check bool)
    (Printf.sprintf "mispredicts %d low" s.Predictor.mispredictions)
    true
    (s.Predictor.mispredictions < 100)

let test_gshare_alternating_pattern () =
  (* Strict alternation is captured by history correlation. *)
  let p = Predictor.create Config.default in
  for i = 1 to 2000 do
    ignore (Predictor.predict_branch p ~pc:52 ~taken:(i mod 2 = 0))
  done;
  let s = Predictor.stats p in
  Alcotest.(check bool) "alternation learned" true (s.Predictor.mispredictions < 60)

let test_ras_matches_calls () =
  let p = Predictor.create Config.default in
  Predictor.call_push p ~return_addr:101;
  Predictor.call_push p ~return_addr:202;
  Alcotest.(check bool) "inner return" true (Predictor.ret_predict p ~actual:202);
  Alcotest.(check bool) "outer return" true (Predictor.ret_predict p ~actual:101);
  Alcotest.(check bool) "underflow mispredicts" false (Predictor.ret_predict p ~actual:5)

let test_ras_overflow_wraps () =
  let p = Predictor.create Config.default in
  let depth = Config.default.Config.ras_entries + 4 in
  for i = 1 to depth do
    Predictor.call_push p ~return_addr:i
  done;
  (* The newest entries are intact even after wrap. *)
  Alcotest.(check bool) "top ok" true (Predictor.ret_predict p ~actual:depth)

let test_btb_install_and_hit () =
  let p = Predictor.create Config.default in
  Alcotest.(check bool) "first lookup misses" false (Predictor.btb_lookup p ~pc:9 ~target:77);
  Alcotest.(check bool) "second hits" true (Predictor.btb_lookup p ~pc:9 ~target:77);
  Alcotest.(check bool) "retarget misses" false (Predictor.btb_lookup p ~pc:9 ~target:78)

let test_pipeline_basic_sanity () =
  let img = Program.layout (Progs.sum_to_n 1000) in
  let s = Pipeline.simulate img in
  Alcotest.(check bool) "cycles positive" true (s.Pipeline.cycles > 0);
  Alcotest.(check bool) "instructions counted" true (s.Pipeline.instructions > 3000);
  Alcotest.(check bool) "ipc within issue width" true
    (s.Pipeline.ipc <= float_of_int Config.default.Config.issue_width);
  Alcotest.(check bool) "ipc positive" true (s.Pipeline.ipc > 0.1)

let test_pipeline_deterministic () =
  let img = Program.layout (Progs.two_phase ~iters_per_phase:500 ~repeats:2) in
  let a = Pipeline.simulate img in
  let b = Pipeline.simulate img in
  Alcotest.(check int) "same cycles" a.Pipeline.cycles b.Pipeline.cycles;
  Alcotest.(check int) "same mispredicts" a.Pipeline.branch_mispredicts
    b.Pipeline.branch_mispredicts

let test_pipeline_more_work_more_cycles () =
  let short = Pipeline.simulate (Program.layout (Progs.sum_to_n 100)) in
  let long = Pipeline.simulate (Program.layout (Progs.sum_to_n 10_000)) in
  Alcotest.(check bool) "monotone" true (long.Pipeline.cycles > short.Pipeline.cycles)

let test_pipeline_biased_branches_predict_well () =
  let img = Program.layout (Progs.biased_branch ~iters:20_000 ~bias_mod:100) in
  let s = Pipeline.simulate img in
  let rate =
    float_of_int s.Pipeline.branch_mispredicts /. float_of_int s.Pipeline.instructions
  in
  Alcotest.(check bool) "low mispredict rate" true (rate < 0.01)

let test_pipeline_dependent_chain_slower () =
  (* A long dependent multiply chain must be slower per instruction
     than independent adds. *)
  let module B = Vp_prog.Builder in
  let module Op = Vp_isa.Op in
  let build dependent =
    let b = B.create () in
    B.func b "main" ~nargs:0 (fun fb _ ->
        let v = B.vreg fb in
        let w = B.vreg fb in
        let i = B.vreg fb in
        B.li fb v 3;
        B.li fb w 5;
        B.for_ fb i ~from:(B.K 0) ~below:(B.K 2000) (fun () ->
            if dependent then begin
              B.alu fb Op.Mul v v (B.K 3);
              B.alu fb Op.Mul v v (B.K 5);
              B.alu fb Op.Mul v v (B.K 7);
              B.alu fb Op.And v v (B.K 0xFFFF)
            end
            else begin
              B.alu fb Op.Add v v (B.K 3);
              B.alu fb Op.Add w w (B.K 5);
              B.alu fb Op.Xor v v (B.K 7);
              B.alu fb Op.And w w (B.K 0xFFFF)
            end);
        B.ret fb (Some v);
        B.halt fb);
    Program.layout (B.program b ~entry:"main")
  in
  let dep = Pipeline.simulate (build true) in
  let indep = Pipeline.simulate (build false) in
  Alcotest.(check bool)
    (Printf.sprintf "dependent ipc %.2f < independent ipc %.2f" dep.Pipeline.ipc
       indep.Pipeline.ipc)
    true
    (dep.Pipeline.ipc < indep.Pipeline.ipc)

let test_simulate_phases_partitions () =
  let img = Program.layout (Progs.two_phase ~iters_per_phase:500 ~repeats:2) in
  let whole = Pipeline.simulate img in
  (* A synthetic two-interval timeline covering all branches. *)
  let total_branches =
    (Vp_exec.Emulator.run_backend img).Vp_exec.Emulator.cond_branches
  in
  let timeline =
    [ (0, total_branches / 2, 0); (total_branches / 2, total_branches + 1, 1) ]
  in
  let segs = Pipeline.simulate_phases ~timeline img in
  Alcotest.(check bool) "both phases present" true (List.length segs >= 2);
  let branches = List.fold_left (fun a s -> a + s.Pipeline.branches) 0 segs in
  Alcotest.(check int) "all branches attributed" total_branches branches;
  let instrs = List.fold_left (fun a s -> a + s.Pipeline.seg_instructions) 0 segs in
  Alcotest.(check bool) "most instructions attributed" true
    (instrs <= whole.Pipeline.instructions
    && instrs > whole.Pipeline.instructions * 9 / 10);
  List.iter
    (fun s ->
      Alcotest.(check bool) "ipc sane" true
        (s.Pipeline.seg_ipc > 0.0 && s.Pipeline.seg_ipc <= 8.0))
    segs

let test_pipeline_rejects_unresolved_branch () =
  (* A never-taken branch with an unresolved [Label] target: the
     emulator runs fine (target_addr is only needed when taken), but
     the timing model must refuse rather than silently skip the
     predictor and progress callback, which would desync phase
     attribution. *)
  let module Instr = Vp_isa.Instr in
  let module Op = Vp_isa.Op in
  let module Reg = Vp_isa.Reg in
  let img =
    {
      Vp_prog.Image.code =
        [|
          Instr.Li { dst = Reg.ret_value; imm = 1 };
          Instr.Br
            {
              cond = Op.Lt;
              src1 = Reg.zero;
              src2 = Reg.zero;
              target = Instr.Label "nowhere";
            };
          Instr.Halt;
        |];
      syms = [ { Vp_prog.Image.name = "main"; start = 0; len = 3 } ];
      entry = 0;
      orig_limit = 3;
      data_init = [];
      data_break = 0;
    }
  in
  let outcome = Vp_exec.Emulator.run_backend img in
  Alcotest.(check bool) "emulator completes" true
    outcome.Vp_exec.Emulator.halted;
  Alcotest.check_raises "pipeline rejects"
    (Vp_util.Error.Error
       {
         stage = "pipeline";
         what = "unresolved label nowhere in branch at 0x1";
         pc = Some 1;
         label = Some "nowhere";
       })
    (fun () -> ignore (Pipeline.simulate img))

let test_speedup_ratio () =
  let img = Program.layout (Progs.sum_to_n 1000) in
  let s = Pipeline.simulate img in
  Alcotest.(check (float 1e-9)) "self speedup" 1.0
    (Pipeline.speedup ~baseline:s ~optimized:s)

(* The retire path must not allocate per instruction: a 10x longer
   simulation allocates the same constant amount (caches, predictor,
   the compiled image and its decoded tables are memoized, not
   per-retirement). *)
let test_simulate_allocation_flat () =
  let img =
    Program.layout (Progs.two_phase ~iters_per_phase:100_000 ~repeats:2)
  in
  ignore (Pipeline.simulate ~fuel:1_000 img);
  let words f =
    let before = Gc.minor_words () in
    f ();
    Gc.minor_words () -. before
  in
  let short = words (fun () -> ignore (Pipeline.simulate ~fuel:10_000 img)) in
  let long = words (fun () -> ignore (Pipeline.simulate ~fuel:100_000 img)) in
  Alcotest.(check bool)
    (Printf.sprintf "allocation flat (short %.0f, long %.0f)" short long)
    true
    (long -. short < 10_000.)

(* Per-phase attribution accumulates into arrays, not per-branch
   boxes: a 10x longer run allocates the same. *)
let test_simulate_phases_allocation_flat () =
  let img =
    Program.layout (Progs.two_phase ~iters_per_phase:100_000 ~repeats:2)
  in
  let timeline = [ (0, 1_000, 0); (1_000, 5_000, 1); (5_000, max_int, 2) ] in
  let run fuel = ignore (Pipeline.simulate_phases ~fuel ~timeline img) in
  run 1_000;
  let words f =
    let before = Gc.minor_words () in
    f ();
    Gc.minor_words () -. before
  in
  let short = words (fun () -> run 10_000) in
  let long = words (fun () -> run 100_000) in
  Alcotest.(check bool)
    (Printf.sprintf "allocation flat (short %.0f, long %.0f)" short long)
    true
    (long -. short < 10_000.)

(* Golden timing stats: the full [Pipeline.stats] record of every
   paper-A image — the twelve A-input originals and their
   [Config.experiment ~inference:true ~linking:true] rewrites, the
   images Figure 10 times.  A change to how the model is fed or how it
   walks the retirement stream must leave every field of every record
   unchanged. *)
let golden_stats =
  [
    ( "099.go/A",
      {
        Pipeline.cycles = 4648616; instructions = 7725376;
        ipc = 0x1.a97009ada1bdp+0; branch_mispredicts = 48695;
        ras_mispredicts = 1; taken_redirects = 73567; icache_misses = 153;
        dcache_misses = 107; l2_misses = 169; fetch_stall_cycles = 1683391;
        data_stall_cycles = 2518290; fetch_line_buffer_hits = 6171961;
        data_line_buffer_hits = 1790380;
      },
      {
        Pipeline.cycles = 3814778; instructions = 7965508;
        ipc = 0x1.0b45bea034e8ap+1; branch_mispredicts = 48496;
        ras_mispredicts = 1; taken_redirects = 14570; icache_misses = 173;
        dcache_misses = 107; l2_misses = 191; fetch_stall_cycles = 1641063;
        data_stall_cycles = 1726790; fetch_line_buffer_hits = 6830359;
        data_line_buffer_hits = 1790380;
      } );
    ( "124.m88ksim/A",
      {
        Pipeline.cycles = 3323474; instructions = 4435549;
        ipc = 0x1.55a9256c9da99p+0; branch_mispredicts = 40330;
        ras_mispredicts = 54; taken_redirects = 152190; icache_misses = 691;
        dcache_misses = 844; l2_misses = 846; fetch_stall_cycles = 1050723;
        data_stall_cycles = 2272465; fetch_line_buffer_hits = 3240215;
        data_line_buffer_hits = 251502;
      },
      {
        Pipeline.cycles = 3001169; instructions = 4480770;
        ipc = 0x1.7e35c978b9063p+0; branch_mispredicts = 38580;
        ras_mispredicts = 54; taken_redirects = 29560; icache_misses = 700;
        dcache_misses = 844; l2_misses = 845; fetch_stall_cycles = 961546;
        data_stall_cycles = 2039340; fetch_line_buffer_hits = 3508791;
        data_line_buffer_hits = 251502;
      } );
    ( "130.li/A",
      {
        Pipeline.cycles = 9450937; instructions = 13208756;
        ipc = 0x1.65c9fd8d66368p+0; branch_mispredicts = 107965;
        ras_mispredicts = 1; taken_redirects = 880070; icache_misses = 258;
        dcache_misses = 92; l2_misses = 285; fetch_stall_cycles = 2985829;
        data_stall_cycles = 5732006; fetch_line_buffer_hits = 10318077;
        data_line_buffer_hits = 3076541;
      },
      {
        Pipeline.cycles = 8088272; instructions = 13428451;
        ipc = 0x1.a9055011c0b6bp+0; branch_mispredicts = 83384;
        ras_mispredicts = 1; taken_redirects = 25896; icache_misses = 342;
        dcache_misses = 92; l2_misses = 371; fetch_stall_cycles = 2062742;
        data_stall_cycles = 5365670; fetch_line_buffer_hits = 10660029;
        data_line_buffer_hits = 3076541;
      } );
    ( "132.ijpeg/A",
      {
        Pipeline.cycles = 1305160; instructions = 1195707;
        ipc = 0x1.d51012a7750c5p-1; branch_mispredicts = 1120;
        ras_mispredicts = 41; taken_redirects = 6530; icache_misses = 593;
        dcache_misses = 10917; l2_misses = 2500; fetch_stall_cycles = 173775;
        data_stall_cycles = 1131116; fetch_line_buffer_hits = 967858;
        data_line_buffer_hits = 106548;
      },
      {
        Pipeline.cycles = 1305377; instructions = 1198801;
        ipc = 0x1.d632c716dc4e6p-1; branch_mispredicts = 1114;
        ras_mispredicts = 41; taken_redirects = 6528; icache_misses = 601;
        dcache_misses = 10917; l2_misses = 2499; fetch_stall_cycles = 177079;
        data_stall_cycles = 1128032; fetch_line_buffer_hits = 961333;
        data_line_buffer_hits = 106548;
      } );
    ( "164.gzip/A",
      {
        Pipeline.cycles = 5141943; instructions = 6047012;
        ipc = 0x1.2d0f71fc45a6dp+0; branch_mispredicts = 147745;
        ras_mispredicts = 26; taken_redirects = 329556; icache_misses = 477;
        dcache_misses = 10870; l2_misses = 3127; fetch_stall_cycles = 2031705;
        data_stall_cycles = 2981013; fetch_line_buffer_hits = 4719142;
        data_line_buffer_hits = 346967;
      },
      {
        Pipeline.cycles = 4707712; instructions = 6111536;
        ipc = 0x1.4c569dcb5d6p+0; branch_mispredicts = 134075;
        ras_mispredicts = 26; taken_redirects = 77033; icache_misses = 488;
        dcache_misses = 10870; l2_misses = 3126; fetch_stall_cycles = 1715949;
        data_stall_cycles = 2894797; fetch_line_buffer_hits = 4912057;
        data_line_buffer_hits = 346967;
      } );
    ( "175.vpr/A",
      {
        Pipeline.cycles = 6717050; instructions = 9117517;
        ipc = 0x1.5b7c8ccc29334p+0; branch_mispredicts = 56726;
        ras_mispredicts = 106; taken_redirects = 153319; icache_misses = 1123;
        dcache_misses = 827; l2_misses = 1231; fetch_stall_cycles = 1431960;
        data_stall_cycles = 4684655; fetch_line_buffer_hits = 7546260;
        data_line_buffer_hits = 2505808;
      },
      {
        Pipeline.cycles = 6395718; instructions = 9322989;
        ipc = 0x1.752b52e3a90abp+0; branch_mispredicts = 68316;
        ras_mispredicts = 106; taken_redirects = 149539; icache_misses = 1139;
        dcache_misses = 827; l2_misses = 1248; fetch_stall_cycles = 1615759;
        data_stall_cycles = 4179529; fetch_line_buffer_hits = 7821379;
        data_line_buffer_hits = 2505808;
      } );
    ( "181.mcf/A",
      {
        Pipeline.cycles = 5809518; instructions = 6335868;
        ipc = 0x1.1731a5ead844fp+0; branch_mispredicts = 6105;
        ras_mispredicts = 1; taken_redirects = 321735; icache_misses = 240;
        dcache_misses = 65126; l2_misses = 2141; fetch_stall_cycles = 881813;
        data_stall_cycles = 4927564; fetch_line_buffer_hits = 5007030;
        data_line_buffer_hits = 328625;
      },
      {
        Pipeline.cycles = 5283147; instructions = 6335897;
        ipc = 0x1.330313bcc7d08p+0; branch_mispredicts = 6081;
        ras_mispredicts = 1; taken_redirects = 6; icache_misses = 252;
        dcache_misses = 65126; l2_misses = 2140; fetch_stall_cycles = 560259;
        data_stall_cycles = 4722749; fetch_line_buffer_hits = 5163361;
        data_line_buffer_hits = 328625;
      } );
    ( "134.perl/A",
      {
        Pipeline.cycles = 4923391; instructions = 5724045;
        ipc = 0x1.29a1a049b6503p+0; branch_mispredicts = 9859;
        ras_mispredicts = 174; taken_redirects = 260572; icache_misses = 1770;
        dcache_misses = 254; l2_misses = 1819; fetch_stall_cycles = 1250603;
        data_stall_cycles = 3635326; fetch_line_buffer_hits = 4609406;
        data_line_buffer_hits = 509747;
      },
      {
        Pipeline.cycles = 4932565; instructions = 5890231;
        ipc = 0x1.31b3ed6a5ae3cp+0; branch_mispredicts = 9740;
        ras_mispredicts = 174; taken_redirects = 256050; icache_misses = 1782;
        dcache_misses = 254; l2_misses = 1831; fetch_stall_cycles = 1412107;
        data_stall_cycles = 3482999; fetch_line_buffer_hits = 4254297;
        data_line_buffer_hits = 509747;
      } );
    ( "255.vortex/A",
      {
        Pipeline.cycles = 9980334; instructions = 12517737;
        ipc = 0x1.4115e43e6022p+0; branch_mispredicts = 38677;
        ras_mispredicts = 76; taken_redirects = 1335206; icache_misses = 870;
        dcache_misses = 1283; l2_misses = 1122; fetch_stall_cycles = 2919535;
        data_stall_cycles = 6916412; fetch_line_buffer_hits = 9174224;
        data_line_buffer_hits = 1515256;
      },
      {
        Pipeline.cycles = 8580442; instructions = 12623026;
        ipc = 0x1.789c96e6e2da3p+0; branch_mispredicts = 36077;
        ras_mispredicts = 77; taken_redirects = 2714; icache_misses = 893;
        dcache_misses = 1283; l2_misses = 1121; fetch_stall_cycles = 1635748;
        data_stall_cycles = 6800311; fetch_line_buffer_hits = 10234454;
        data_line_buffer_hits = 1515256;
      } );
    ( "197.parser/A",
      {
        Pipeline.cycles = 7618065; instructions = 8884217;
        ipc = 0x1.2a8c567b0107ep+0; branch_mispredicts = 81796;
        ras_mispredicts = 59; taken_redirects = 1231494; icache_misses = 735;
        dcache_misses = 7618; l2_misses = 1684; fetch_stall_cycles = 2838005;
        data_stall_cycles = 4559572; fetch_line_buffer_hits = 6446003;
        data_line_buffer_hits = 1008146;
      },
      {
        Pipeline.cycles = 6660575; instructions = 8994310;
        ipc = 0x1.59b287d289933p+0; branch_mispredicts = 136140;
        ras_mispredicts = 59; taken_redirects = 58352; icache_misses = 743;
        dcache_misses = 7618; l2_misses = 1683; fetch_stall_cycles = 2100616;
        data_stall_cycles = 4339476; fetch_line_buffer_hits = 6969769;
        data_line_buffer_hits = 1008146;
      } );
    ( "300.twolf/A",
      {
        Pipeline.cycles = 3293578; instructions = 4062185;
        ipc = 0x1.3bbdd4f8cceacp+0; branch_mispredicts = 63056;
        ras_mispredicts = 26; taken_redirects = 38514; icache_misses = 468;
        dcache_misses = 345; l2_misses = 520; fetch_stall_cycles = 879307;
        data_stall_cycles = 2414025; fetch_line_buffer_hits = 3320602;
        data_line_buffer_hits = 111485;
      },
      {
        Pipeline.cycles = 3277211; instructions = 4062217;
        ipc = 0x1.3d5226a984c1cp+0; branch_mispredicts = 63996;
        ras_mispredicts = 26; taken_redirects = 22553; icache_misses = 478;
        dcache_misses = 345; l2_misses = 532; fetch_stall_cycles = 870627;
        data_stall_cycles = 2406342; fetch_line_buffer_hits = 3205906;
        data_line_buffer_hits = 111485;
      } );
    ( "mpeg2dec/A",
      {
        Pipeline.cycles = 6394793; instructions = 7895516;
        ipc = 0x1.3c13eaa1506fbp+0; branch_mispredicts = 2890;
        ras_mispredicts = 49; taken_redirects = 13; icache_misses = 654;
        dcache_misses = 99122; l2_misses = 1611; fetch_stall_cycles = 741526;
        data_stall_cycles = 5652566; fetch_line_buffer_hits = 6290809;
        data_line_buffer_hits = 149335;
      },
      {
        Pipeline.cycles = 5793126; instructions = 7897088;
        ipc = 0x1.5cf9874c3756bp+0; branch_mispredicts = 2888;
        ras_mispredicts = 49; taken_redirects = 13; icache_misses = 664;
        dcache_misses = 99122; l2_misses = 1610; fetch_stall_cycles = 743623;
        data_stall_cycles = 5048801; fetch_line_buffer_hits = 6292068;
        data_line_buffer_hits = 149335;
      } );
  ]

let check_stats name (want : Pipeline.stats) (got : Pipeline.stats) =
  let field f label =
    Alcotest.(check int) (name ^ ": " ^ label) (f want) (f got)
  in
  field (fun s -> s.Pipeline.cycles) "cycles";
  field (fun s -> s.Pipeline.instructions) "instructions";
  Alcotest.(check (float 0.))
    (name ^ ": ipc") want.Pipeline.ipc got.Pipeline.ipc;
  field (fun s -> s.Pipeline.branch_mispredicts) "branch mispredicts";
  field (fun s -> s.Pipeline.ras_mispredicts) "ras mispredicts";
  field (fun s -> s.Pipeline.taken_redirects) "taken redirects";
  field (fun s -> s.Pipeline.icache_misses) "icache misses";
  field (fun s -> s.Pipeline.dcache_misses) "dcache misses";
  field (fun s -> s.Pipeline.l2_misses) "l2 misses";
  field (fun s -> s.Pipeline.fetch_stall_cycles) "fetch stalls";
  field (fun s -> s.Pipeline.data_stall_cycles) "data stalls";
  field (fun s -> s.Pipeline.fetch_line_buffer_hits) "fetch line buffer hits";
  field (fun s -> s.Pipeline.data_line_buffer_hits) "data line buffer hits"

let experiment = Vacuum.Config.experiment ~inference:true ~linking:true

(* The original image and the rewrite of one paper-A workload, built
   once for every group that times them. *)
let paper_rewrite =
  let built = Hashtbl.create 12 in
  fun name ->
    match Hashtbl.find_opt built name with
    | Some rw -> rw
    | None ->
      let module Registry = Vp_workloads.Registry in
      let w = List.find (fun w -> Registry.name w = name) Registry.all in
      let image = Program.layout (w.Registry.program ()) in
      let rw = Vacuum.Driver.rewrite ~config:experiment image in
      Hashtbl.replace built name rw;
      rw

let paper_images name =
  let rw = paper_rewrite name in
  (rw.Vacuum.Driver.source.Vacuum.Driver.image, Vacuum.Driver.rewritten_image rw)

let simulate_paper ?(cpu = Vacuum.Config.cpu experiment) ?telemetry img =
  Pipeline.simulate ~config:cpu ~fuel:(Vacuum.Config.fuel experiment)
    ~mem_words:(Vacuum.Config.mem_words experiment) ?telemetry img

let test_golden_stats (name, baseline, optimized) () =
  let image, rewritten = paper_images name in
  check_stats (name ^ " baseline") baseline (simulate_paper image);
  check_stats (name ^ " optimized") optimized (simulate_paper rewritten)

(* [Speedup.measure] times the original and the rewrite on two domains
   when the host has them.  Each field of both records must equal the
   golden one, which the "golden stats" group pins to timing the two
   images in turn. *)
let test_speedup_concurrent (name, baseline, optimized) () =
  let s = Vacuum.Speedup.measure ~config:experiment (paper_rewrite name) in
  check_stats (name ^ " baseline") baseline s.Vacuum.Speedup.baseline;
  check_stats (name ^ " optimized") optimized s.Vacuum.Speedup.optimized;
  Alcotest.(check (float 0.))
    (name ^ ": speedup")
    (Pipeline.speedup ~baseline ~optimized)
    s.Vacuum.Speedup.speedup

(* When both images fail, the baseline's error is raised, even when the
   optimized image fails first: here the baseline faults after a
   200,000-iteration loop and the optimized image at its first
   instruction. *)
let test_speedup_baseline_error_wins () =
  let r = Vp_isa.Reg.of_int in
  let image code =
    {
      Vp_prog.Image.code;
      syms = [ { Vp_prog.Image.name = "main"; start = 0; len = Array.length code } ];
      entry = 0;
      orig_limit = Array.length code;
      data_init = [];
      data_break = 0;
    }
  in
  let module I = Vp_isa.Instr in
  let slow_fault =
    image
      [|
        I.Li { dst = r 8; imm = 0 };
        I.Li { dst = r 9; imm = 200_000 };
        I.Alu { op = Vp_isa.Op.Add; dst = r 8; src1 = r 8; src2 = I.Imm 1 };
        I.Br { cond = Vp_isa.Op.Lt; src1 = r 8; src2 = r 9; target = I.Addr 2 };
        I.Load { dst = r 10; base = r 0; offset = -1 };
        I.Halt;
      |]
  and fast_fault =
    image [| I.Store { src = r 8; base = r 0; offset = -2 }; I.Halt |]
  in
  let rw = paper_rewrite "099.go/A" in
  let rw =
    {
      rw with
      Vacuum.Driver.source = { rw.Vacuum.Driver.source with Vacuum.Driver.image = slow_fault };
      emitted = { rw.Vacuum.Driver.emitted with Vp_package.Emit.image = fast_fault };
    }
  in
  Alcotest.check_raises "baseline's fault"
    (Vp_exec.State.Fault "load from -1 out of range (pc=0x4)") (fun () ->
      ignore (Vacuum.Speedup.measure ~config:experiment rw))

(* A machine that misses everywhere and issues one instruction a cycle:
   1 KB L1s and an 8 KB L2, so runs fall back from the block memo and
   the memo keys see deep stalls. *)
let tiny_cpu =
  let c = Config.default in
  {
    c with
    Config.issue_width = 1;
    l1i = { c.Config.l1i with Config.size_bytes = 1024 };
    l1d = { c.Config.l1d with Config.size_bytes = 1024 };
    l2 = { c.Config.l2 with Config.size_bytes = 8 * 1024 };
  }

(* The 24 paper-A images on [tiny_cpu], recorded with a walker that
   times every instruction, the reference the block memo must match. *)
let tiny_golden_stats =
  [
    ( "099.go/A",
      {
        Pipeline.cycles = 8388390; instructions = 7725376;
        ipc = 0x1.d7882313dbbddp-1; branch_mispredicts = 48695;
        ras_mispredicts = 1; taken_redirects = 73567; icache_misses = 299;
        dcache_misses = 40590; l2_misses = 211; fetch_stall_cycles = 1649068;
        data_stall_cycles = 2494686; fetch_line_buffer_hits = 6171961;
        data_line_buffer_hits = 1790380;
      },
      {
        Pipeline.cycles = 11060448; instructions = 7965508;
        ipc = 0x1.70bb5e5512c7ep-1; branch_mispredicts = 48496;
        ras_mispredicts = 1; taken_redirects = 14570; icache_misses = 404732;
        dcache_misses = 40590; l2_misses = 441; fetch_stall_cycles = 4401993;
        data_stall_cycles = 1437098; fetch_line_buffer_hits = 6830359;
        data_line_buffer_hits = 1790380;
      } );
    ( "124.m88ksim/A",
      {
        Pipeline.cycles = 7023495; instructions = 4435549;
        ipc = 0x1.4357ec2fc2d06p-1; branch_mispredicts = 40330;
        ras_mispredicts = 54; taken_redirects = 152190; icache_misses = 838;
        dcache_misses = 169479; l2_misses = 104100; fetch_stall_cycles = 1047142;
        data_stall_cycles = 4164370; fetch_line_buffer_hits = 3240215;
        data_line_buffer_hits = 251502;
      },
      {
        Pipeline.cycles = 6870364; instructions = 4480770;
        ipc = 0x1.4deb9afe72af2p-1; branch_mispredicts = 38580;
        ras_mispredicts = 54; taken_redirects = 29560; icache_misses = 851;
        dcache_misses = 169479; l2_misses = 104108; fetch_stall_cycles = 970411;
        data_stall_cycles = 3413862; fetch_line_buffer_hits = 3508791;
        data_line_buffer_hits = 251502;
      } );
    ( "130.li/A",
      {
        Pipeline.cycles = 16017872; instructions = 13208756;
        ipc = 0x1.a63565d3c6b81p-1; branch_mispredicts = 107965;
        ras_mispredicts = 1; taken_redirects = 880070; icache_misses = 31411;
        dcache_misses = 148504; l2_misses = 368; fetch_stall_cycles = 3190041;
        data_stall_cycles = 6454171; fetch_line_buffer_hits = 10318077;
        data_line_buffer_hits = 3076541;
      },
      {
        Pipeline.cycles = 20679799; instructions = 13428451;
        ipc = 0x1.4c77c094bca8dp-1; branch_mispredicts = 83384;
        ras_mispredicts = 1; taken_redirects = 25896; icache_misses = 900959;
        dcache_misses = 148504; l2_misses = 1030; fetch_stall_cycles = 7542577;
        data_stall_cycles = 5045317; fetch_line_buffer_hits = 10660029;
        data_line_buffer_hits = 3076541;
      } );
    ( "132.ijpeg/A",
      {
        Pipeline.cycles = 2311349; instructions = 1195707;
        ipc = 0x1.08de29d2c1722p-1; branch_mispredicts = 1120;
        ras_mispredicts = 41; taken_redirects = 6530; icache_misses = 761;
        dcache_misses = 13617; l2_misses = 13133; fetch_stall_cycles = 184541;
        data_stall_cycles = 1696444; fetch_line_buffer_hits = 967858;
        data_line_buffer_hits = 106548;
      },
      {
        Pipeline.cycles = 2266271; instructions = 1198801;
        ipc = 0x1.0ed5d41378a6dp-1; branch_mispredicts = 1114;
        ras_mispredicts = 41; taken_redirects = 6528; icache_misses = 782;
        dcache_misses = 13617; l2_misses = 13154; fetch_stall_cycles = 189013;
        data_stall_cycles = 1547813; fetch_line_buffer_hits = 961333;
        data_line_buffer_hits = 106548;
      } );
    ( "164.gzip/A",
      {
        Pipeline.cycles = 7977337; instructions = 6047012;
        ipc = 0x1.841bb4f7ce0a8p-1; branch_mispredicts = 147745;
        ras_mispredicts = 26; taken_redirects = 329556; icache_misses = 605;
        dcache_misses = 35546; l2_misses = 11707; fetch_stall_cycles = 2039897;
        data_stall_cycles = 3322543; fetch_line_buffer_hits = 4719142;
        data_line_buffer_hits = 346967;
      },
      {
        Pipeline.cycles = 7982213; instructions = 6111536;
        ipc = 0x1.88028815ab706p-1; branch_mispredicts = 134075;
        ras_mispredicts = 26; taken_redirects = 77033; icache_misses = 618;
        dcache_misses = 35546; l2_misses = 11720; fetch_stall_cycles = 1724795;
        data_stall_cycles = 3314717; fetch_line_buffer_hits = 4912057;
        data_line_buffer_hits = 346967;
      } );
    ( "175.vpr/A",
      {
        Pipeline.cycles = 15309026; instructions = 9117517;
        ipc = 0x1.30edde90df95dp-1; branch_mispredicts = 56726;
        ras_mispredicts = 106; taken_redirects = 153319; icache_misses = 1348;
        dcache_misses = 401109; l2_misses = 107362; fetch_stall_cycles = 1443590;
        data_stall_cycles = 9029631; fetch_line_buffer_hits = 7546260;
        data_line_buffer_hits = 2505808;
      },
      {
        Pipeline.cycles = 18893370; instructions = 9322989;
        ipc = 0x1.f94bba563453p-2; branch_mispredicts = 68316;
        ras_mispredicts = 106; taken_redirects = 149539; icache_misses = 501356;
        dcache_misses = 401109; l2_misses = 125335; fetch_stall_cycles = 4912565;
        data_stall_cycles = 8586281; fetch_line_buffer_hits = 7821379;
        data_line_buffer_hits = 2505808;
      } );
    ( "181.mcf/A",
      {
        Pipeline.cycles = 12398688; instructions = 6335868;
        ipc = 0x1.05a3416394bbfp-1; branch_mispredicts = 6105;
        ras_mispredicts = 1; taken_redirects = 321735; icache_misses = 288;
        dcache_misses = 369011; l2_misses = 83891; fetch_stall_cycles = 884404;
        data_stall_cycles = 9786327; fetch_line_buffer_hits = 5007030;
        data_line_buffer_hits = 328625;
      },
      {
        Pipeline.cycles = 12986720; instructions = 6335897;
        ipc = 0x1.f395861690f0ep-2; branch_mispredicts = 6081;
        ras_mispredicts = 1; taken_redirects = 6; icache_misses = 371;
        dcache_misses = 369011; l2_misses = 84018; fetch_stall_cycles = 568071;
        data_stall_cycles = 9770678; fetch_line_buffer_hits = 5163361;
        data_line_buffer_hits = 328625;
      } );
    ( "134.perl/A",
      {
        Pipeline.cycles = 7210312; instructions = 5724045;
        ipc = 0x1.967607dc46f39p-1; branch_mispredicts = 9859;
        ras_mispredicts = 174; taken_redirects = 260572; icache_misses = 1996;
        dcache_misses = 1711; l2_misses = 2370; fetch_stall_cycles = 1271661;
        data_stall_cycles = 3486315; fetch_line_buffer_hits = 4609406;
        data_line_buffer_hits = 509747;
      },
      {
        Pipeline.cycles = 7370694; instructions = 5890231;
        ipc = 0x1.9929233d42e5cp-1; branch_mispredicts = 9740;
        ras_mispredicts = 174; taken_redirects = 256050; icache_misses = 2197;
        dcache_misses = 1711; l2_misses = 2382; fetch_stall_cycles = 1434387;
        data_stall_cycles = 3013595; fetch_line_buffer_hits = 4254297;
        data_line_buffer_hits = 509747;
      } );
    ( "255.vortex/A",
      {
        Pipeline.cycles = 21985341; instructions = 12517737;
        ipc = 0x1.2384208e55397p-1; branch_mispredicts = 38677;
        ras_mispredicts = 76; taken_redirects = 1335206; icache_misses = 1057;
        dcache_misses = 151480; l2_misses = 122761; fetch_stall_cycles = 2931127;
        data_stall_cycles = 14336659; fetch_line_buffer_hits = 9174224;
        data_line_buffer_hits = 1515256;
      },
      {
        Pipeline.cycles = 22548017; instructions = 12623026;
        ipc = 0x1.1ea1dc7dbcf6cp-1; branch_mispredicts = 36077;
        ras_mispredicts = 77; taken_redirects = 2714; icache_misses = 1078;
        dcache_misses = 151480; l2_misses = 122782; fetch_stall_cycles = 1648355;
        data_stall_cycles = 14111874; fetch_line_buffer_hits = 10234454;
        data_line_buffer_hits = 1515256;
      } );
    ( "197.parser/A",
      {
        Pipeline.cycles = 13880773; instructions = 8884217;
        ipc = 0x1.47b3030104b2ep-1; branch_mispredicts = 81796;
        ras_mispredicts = 59; taken_redirects = 1231494; icache_misses = 942;
        dcache_misses = 319492; l2_misses = 29568; fetch_stall_cycles = 2849313;
        data_stall_cycles = 7935829; fetch_line_buffer_hits = 6446003;
        data_line_buffer_hits = 1008146;
      },
      {
        Pipeline.cycles = 14310833; instructions = 8994310;
        ipc = 0x1.41ca4eb31f231p-1; branch_mispredicts = 136140;
        ras_mispredicts = 59; taken_redirects = 58352; icache_misses = 1024;
        dcache_misses = 319492; l2_misses = 29581; fetch_stall_cycles = 2112825;
        data_stall_cycles = 7744792; fetch_line_buffer_hits = 6969769;
        data_line_buffer_hits = 1008146;
      } );
    ( "300.twolf/A",
      {
        Pipeline.cycles = 6817295; instructions = 4062185;
        ipc = 0x1.31152b644a1cp-1; branch_mispredicts = 63056;
        ras_mispredicts = 26; taken_redirects = 38514; icache_misses = 565;
        dcache_misses = 150824; l2_misses = 19568; fetch_stall_cycles = 884191;
        data_stall_cycles = 4143783; fetch_line_buffer_hits = 3320602;
        data_line_buffer_hits = 111485;
      },
      {
        Pipeline.cycles = 6940320; instructions = 4062217;
        ipc = 0x1.2bad57af4132fp-1; branch_mispredicts = 63996;
        ras_mispredicts = 26; taken_redirects = 22553; icache_misses = 615;
        dcache_misses = 150824; l2_misses = 19612; fetch_stall_cycles = 877775;
        data_stall_cycles = 3767226; fetch_line_buffer_hits = 3205906;
        data_line_buffer_hits = 111485;
      } );
    ( "mpeg2dec/A",
      {
        Pipeline.cycles = 15821490; instructions = 7895516;
        ipc = 0x1.ff03ac41fcb62p-2; branch_mispredicts = 2890;
        ras_mispredicts = 49; taken_redirects = 13; icache_misses = 839;
        dcache_misses = 179075; l2_misses = 179891; fetch_stall_cycles = 752728;
        data_stall_cycles = 11942560; fetch_line_buffer_hits = 6290809;
        data_line_buffer_hits = 149335;
      },
      {
        Pipeline.cycles = 15384504; instructions = 7897088;
        ipc = 0x1.06d12659c683bp-1; branch_mispredicts = 2888;
        ras_mispredicts = 49; taken_redirects = 13; icache_misses = 1169;
        dcache_misses = 179075; l2_misses = 180221; fetch_stall_cycles = 776220;
        data_stall_cycles = 10135260; fetch_line_buffer_hits = 6292068;
        data_line_buffer_hits = 149335;
      } );
  ]

let test_tiny_golden_stats (name, baseline, optimized) () =
  let image, rewritten = paper_images name in
  check_stats (name ^ " baseline") baseline (simulate_paper ~cpu:tiny_cpu image);
  check_stats (name ^ " optimized") optimized
    (simulate_paper ~cpu:tiny_cpu rewritten)

(* The memo-off oracle: a sampling timeline walks every run one
   instruction at a time, so it must report what the memoized default
   reports; and a second simulation starts from an empty memo, so it
   must repeat the first. *)
let test_memo_parity (name, baseline, optimized) () =
  let image, rewritten = paper_images name in
  let telemetry () =
    Vp_telemetry.create
      (Vp_metrics.create ~interval:Vp_telemetry.default_interval ())
  in
  List.iter
    (fun (label, img, want) ->
      check_stats (name ^ " " ^ label ^ " timeline") want
        (simulate_paper ~telemetry:(telemetry ()) img);
      check_stats (name ^ " " ^ label ^ " first") want (simulate_paper img);
      check_stats (name ^ " " ^ label ^ " second") want (simulate_paper img))
    [ ("baseline", image, baseline); ("optimized", rewritten, optimized) ]

(* Per-phase attribution of 134.perl/A over its detected phases (the
   [vpack phases -w perl --ipc] table), recorded with a walker that
   times every instruction: [on_branch_progress] must see each branch's
   exact cycle and instruction count on the memo path too. *)
let test_golden_phases () =
  let module Registry = Vp_workloads.Registry in
  let w = List.find (fun w -> Registry.name w = "134.perl/A") Registry.all in
  let img = Program.layout (w.Registry.program ()) in
  let profile = Vacuum.Driver.profile img in
  let timeline = Vp_phase.Phase_log.timeline profile.Vacuum.Driver.log in
  let got =
    List.map
      (fun (p : Pipeline.phase_stats) ->
        (p.phase, p.branches, p.seg_instructions, p.seg_cycles))
      (Pipeline.simulate_phases ~timeline img)
  in
  Alcotest.(check (list (pair int (triple int int int))))
    "phase, branches, instructions, cycles"
    (List.map (fun (p, b, i, c) -> (p, (b, i, c)))
       [
         (-1, 9473, 63580, 155284);
         (0, 8311, 47506, 34298);
         (1, 450368, 2489265, 1989025);
         (2, 290847, 1561035, 1354382);
         (3, 293776, 1562629, 1390176);
       ])
    (List.map (fun (p, b, i, c) -> (p, (b, i, c))) got)

(* One FU of each class under the default issue width: a block's timing
   then depends on which units its entry cycle already used, so a
   memo key must carry the FU counters. *)
let narrow_cpu =
  {
    Config.default with
    Config.ialu_units = 1;
    fp_units = 1;
    mem_units = 1;
    branch_units = 1;
  }

let stats_line (s : Pipeline.stats) =
  Printf.sprintf "%d %d %h %d %d %d %d %d %d %d %d %d %d" s.cycles
    s.instructions s.ipc s.branch_mispredicts s.ras_mispredicts
    s.taken_redirects s.icache_misses s.dcache_misses s.l2_misses
    s.fetch_stall_cycles s.data_stall_cycles s.fetch_line_buffer_hits
    s.data_line_buffer_hits

(* Digest of every [Pipeline.stats] field of the 24 paper-A images on
   [narrow_cpu], recorded with a walker that times every instruction. *)
let test_narrow_digest () =
  let b = Buffer.create 4096 in
  List.iter
    (fun (name, _, _) ->
      let image, rewritten = paper_images name in
      List.iter
        (fun img ->
          Buffer.add_string b (stats_line (simulate_paper ~cpu:narrow_cpu img));
          Buffer.add_char b '\n')
        [ image; rewritten ])
    golden_stats;
  Alcotest.(check string)
    "stats digest" "ee60da772786df4183f9fe3757c08ea1"
    (Digest.to_hex (Digest.string (Buffer.contents b)))

(* Digest of every [Pipeline.stats] field over the first 200 campaign
   programs, recorded with a walker that times every instruction. *)
let campaign_digest cpu =
  let module Campaign = Vp_gen.Campaign in
  let config = Campaign.default_config in
  let b = Buffer.create 16_384 in
  for i = 0 to 199 do
    let spec = Campaign.spec_of_index ~root_seed:0 i in
    let image =
      Program.layout
        (Vp_gen.Gen.program ~seed:spec.Campaign.seed spec.Campaign.params)
    in
    (match
       Pipeline.simulate ~config:cpu ~fuel:(Vacuum.Config.fuel config)
         ~mem_words:(Vacuum.Config.mem_words config) image
     with
    | s -> Buffer.add_string b (stats_line s)
    | exception e -> Buffer.add_string b (Printexc.to_string e));
    Buffer.add_char b '\n'
  done;
  Digest.to_hex (Digest.string (Buffer.contents b))

let test_campaign_digest (cpu, want) () =
  Alcotest.(check string) "stats digest" want (campaign_digest cpu)

let prop_pipeline_cycles_at_least_instructions_over_width =
  QCheck.Test.make ~name:"cycles bounded below by width limit" ~count:20
    QCheck.(int_range 10 2000)
    (fun n ->
      let img = Program.layout (Progs.sum_to_n n) in
      let s = Pipeline.simulate img in
      s.Pipeline.cycles * Config.default.Config.issue_width >= s.Pipeline.instructions)

let () =
  Alcotest.run "vp_cpu"
    [
      ( "cache",
        [
          Alcotest.test_case "cold miss then hit" `Quick test_cache_cold_miss_then_hit;
          Alcotest.test_case "lru eviction" `Quick test_cache_lru_eviction;
          Alcotest.test_case "miss rate" `Quick test_cache_miss_rate;
          QCheck_alcotest.to_alcotest prop_cache_true_lru;
        ] );
      ( "predictor",
        [
          Alcotest.test_case "gshare loop" `Quick test_gshare_learns_loop;
          Alcotest.test_case "gshare alternation" `Quick test_gshare_alternating_pattern;
          Alcotest.test_case "ras" `Quick test_ras_matches_calls;
          Alcotest.test_case "ras overflow" `Quick test_ras_overflow_wraps;
          Alcotest.test_case "btb" `Quick test_btb_install_and_hit;
        ] );
      ( "pipeline",
        [
          Alcotest.test_case "sanity" `Quick test_pipeline_basic_sanity;
          Alcotest.test_case "deterministic" `Quick test_pipeline_deterministic;
          Alcotest.test_case "monotone" `Quick test_pipeline_more_work_more_cycles;
          Alcotest.test_case "prediction quality" `Quick
            test_pipeline_biased_branches_predict_well;
          Alcotest.test_case "dependent chain slower" `Quick
            test_pipeline_dependent_chain_slower;
          Alcotest.test_case "speedup ratio" `Quick test_speedup_ratio;
          Alcotest.test_case "per-phase attribution" `Quick test_simulate_phases_partitions;
          Alcotest.test_case "rejects unresolved branch" `Quick
            test_pipeline_rejects_unresolved_branch;
          Alcotest.test_case "zero per-instruction allocation" `Quick
            test_simulate_allocation_flat;
          Alcotest.test_case "per-phase attribution allocation" `Quick
            test_simulate_phases_allocation_flat;
          QCheck_alcotest.to_alcotest prop_pipeline_cycles_at_least_instructions_over_width;
        ] );
      ( "golden stats",
        List.map
          (fun ((name, _, _) as g) ->
            Alcotest.test_case name `Slow (test_golden_stats g))
          golden_stats );
      ( "speedup",
        Alcotest.test_case "baseline error wins" `Quick
          test_speedup_baseline_error_wins
        :: List.map
             (fun ((name, _, _) as g) ->
               Alcotest.test_case name `Slow (test_speedup_concurrent g))
             golden_stats );
      ( "tiny stats",
        List.map
          (fun ((name, _, _) as g) ->
            Alcotest.test_case name `Slow (test_tiny_golden_stats g))
          tiny_golden_stats );
      ( "memo parity",
        List.map
          (fun ((name, _, _) as g) ->
            Alcotest.test_case name `Slow (test_memo_parity g))
          golden_stats );
      ( "narrow FU",
        [ Alcotest.test_case "paper-A digest" `Slow test_narrow_digest ] );
      ( "phase stats",
        [ Alcotest.test_case "134.perl/A" `Slow test_golden_phases ] );
      ( "campaign",
        [
          Alcotest.test_case "default" `Slow
            (test_campaign_digest
               (Config.default, "b883ae9a4e40856e13e838ef45a87702"));
          Alcotest.test_case "tiny" `Slow
            (test_campaign_digest (tiny_cpu, "2381fd30934b955c471dc8b743581cbf"));
          Alcotest.test_case "narrow FU" `Slow
            (test_campaign_digest
               (narrow_cpu, "9ea488667276a37fb5f665c3807b2f8a"));
        ] );
    ]
