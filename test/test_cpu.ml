(* Tests for vp_cpu: cache model, predictors, and the trace-driven
   pipeline timing model. *)

module Config = Vp_cpu.Config
module Cache = Vp_cpu.Cache
module Predictor = Vp_cpu.Predictor
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

let test_golden_stats (name, baseline, optimized) () =
  let module Registry = Vp_workloads.Registry in
  let config = Vacuum.Config.experiment ~inference:true ~linking:true in
  let w = List.find (fun w -> Registry.name w = name) Registry.all in
  let image = Program.layout (w.Registry.program ()) in
  let rw = Vacuum.Driver.rewrite ~config image in
  let simulate img =
    Pipeline.simulate ~config:(Vacuum.Config.cpu config)
      ~fuel:(Vacuum.Config.fuel config)
      ~mem_words:(Vacuum.Config.mem_words config) img
  in
  check_stats (name ^ " baseline") baseline (simulate image);
  check_stats (name ^ " optimized") optimized
    (simulate (Vacuum.Driver.rewritten_image rw))

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
          QCheck_alcotest.to_alcotest prop_pipeline_cycles_at_least_instructions_over_width;
        ] );
      ( "golden stats",
        List.map
          (fun ((name, _, _) as g) ->
            Alcotest.test_case name `Slow (test_golden_stats g))
          golden_stats );
    ]
