module Instr = Vp_isa.Instr
module Op = Vp_isa.Op
module Reg = Vp_isa.Reg
module Decode = Vp_exec.Decode
module Compile = Vp_exec.Compile
module State = Vp_exec.State

type stats = {
  cycles : int;
  instructions : int;
  ipc : float;
  branch_mispredicts : int;
  ras_mispredicts : int;
  taken_redirects : int;
  icache_misses : int;
  dcache_misses : int;
  l2_misses : int;
  fetch_stall_cycles : int;
  data_stall_cycles : int;
  fetch_line_buffer_hits : int;
  data_line_buffer_hits : int;
}

(* Unchecked array access in the run walker: every pc of a run was
   validated by the compiled emulator before it retired, the per-pc
   tables have one entry per pc ([uses_off]/[defs_off] have [n + 1]),
   register numbers are in [0, Reg.count) by construction, FU indices
   are in [0, 4), and a run's [addrs] slots are in [0, len). *)
external ( .!() ) : 'a array -> int -> 'a = "%array_unsafe_get"
external ( .!()<- ) : 'a array -> int -> 'a -> unit = "%array_unsafe_set"

(* Monomorphic int max: [Stdlib.max] is polymorphic and goes through
   the generic comparison — a real function call at least once per
   retired instruction on this path. *)
let imax (a : int) (b : int) = if a >= b then a else b

let fu_index = function
  | Op.Ialu -> 0
  | Op.Fp | Op.Long_fp -> 1
  | Op.Mem -> 2
  | Op.Control -> 3

(* Per-pc timing facts, one packed int per pc: the kind (what the
   walker does beyond issue: a D-cache access, a control redirect), the
   FU class, the base result latency and the pc's I-cache line.  With
   the line precomputed, fetch needs no address arithmetic: the line
   buffer hits when the line equals the last one fetched.

   The walker calls nothing in another module per instruction except
   the cache and predictor models, and those only on a line-buffer miss
   or a control instruction: without cross-module inlining (dune's
   default build profile compiles with -opaque) every such call is an
   indirect one.  [Reg.t] is a private int, so registers index
   [reg_ready] through a free coercion rather than [Reg.to_int]. *)
let kind_other = 0
let kind_load = 1
let kind_store = 2
let kind_br = 3 (* every kind from here on ends a run *)
let kind_jmp = 4
let kind_call = 5
let kind_ret = 6
let kind_br_unresolved = 7
let kind_mask = 7
let fu_shift = 3
let latency_shift = 5
let latency_mask = 0xff
let line_shift = 13

type facts = { compiled : Compile.t; info : int array }

let kind_of_tag tg =
  if tg = Decode.tag_load then kind_load
  else if tg = Decode.tag_store then kind_store
  else if tg = Decode.tag_br then kind_br
  else if tg = Decode.tag_jmp then kind_jmp
  else if tg = Decode.tag_call then kind_call
  else if tg = Decode.tag_ret then kind_ret
  else if tg = Decode.tag_br_unresolved then kind_br_unresolved
  else kind_other

let build_facts ((image : Vp_prog.Image.t), (config : Config.t)) =
  let compiled = Compile.of_image image in
  let d = Compile.decode compiled in
  let instr_bytes = config.Config.instr_bytes in
  let line_bytes = config.Config.l1i.Config.line_bytes in
  let info =
    Array.init (Decode.size d) (fun pc ->
        let latency = d.Decode.latency.(pc) in
        assert (latency >= 0 && latency <= latency_mask);
        kind_of_tag d.Decode.tag.(pc)
        lor (fu_index d.Decode.fu.(pc) lsl fu_shift)
        lor (latency lsl latency_shift)
        (* [Cache.line_index] of the fetch address, which is
           non-negative: the shift and the division agree. *)
        lor ((pc * instr_bytes / line_bytes) lsl line_shift))
  in
  { compiled; info }

(* Built once per (image, cpu config) and kept for the two most recent
   pairs: every Figure 10 caller alternates an original and its rewrite
   under one config. *)
let facts_memo =
  Vp_util.Identity_memo.create
    ~same:(fun (i, c) (i', c') -> i == i' && c == c')
    ()

(* The machine state of one simulation: three caches, the predictor,
   the scoreboard and the issue/fetch counters. *)
type model = {
  l1i : Cache.t;
  l1d : Cache.t;
  l2 : Cache.t;
  pred : Predictor.t;
  fu_limit : int array;
  fu_used : int array;
  reg_ready : int array;
  mutable cycle : int;
  mutable width_used : int;
  mutable fetch_ready : int;
  mutable fetch_stalls : int;
  mutable data_stalls : int;
  mutable taken_redirects : int;
  mutable instructions : int;
  (* Line buffers, as in a real fetch/load unit: a repeat access to
     the line the cache just served is a guaranteed hit (no other
     access to that cache intervened, so nothing evicted it) and is
     not replayed.  Skipping these replays provably leaves every
     hit/miss count and LRU victim unchanged (see {!Cache.line_index}),
     and it removes a model call from the common sequential-fetch and
     stack-traffic paths. *)
  mutable fetch_line : int;
  mutable data_line : int;
  mutable fetch_lb_hits : int;
  mutable data_lb_hits : int;
}

let create_model (config : Config.t) =
  {
    l1i = Cache.create config.Config.l1i;
    l1d = Cache.create config.Config.l1d;
    l2 = Cache.create config.Config.l2;
    pred = Predictor.create config;
    fu_limit =
      [|
        config.Config.ialu_units;
        config.Config.fp_units;
        config.Config.mem_units;
        config.Config.branch_units;
      |];
    fu_used = Array.make 4 0;
    reg_ready = Array.make Reg.count 0;
    cycle = 0;
    width_used = 0;
    fetch_ready = 0;
    fetch_stalls = 0;
    data_stalls = 0;
    taken_redirects = 0;
    instructions = 0;
    fetch_line = -1;
    data_line = -1;
    fetch_lb_hits = 0;
    data_lb_hits = 0;
  }

let reset_model m =
  Cache.reset m.l1i;
  Cache.reset m.l1d;
  Cache.reset m.l2;
  Predictor.reset m.pred;
  Array.fill m.fu_used 0 4 0;
  Array.fill m.reg_ready 0 Reg.count 0;
  m.cycle <- 0;
  m.width_used <- 0;
  m.fetch_ready <- 0;
  m.fetch_stalls <- 0;
  m.data_stalls <- 0;
  m.taken_redirects <- 0;
  m.instructions <- 0;
  m.fetch_line <- -1;
  m.data_line <- -1;
  m.fetch_lb_hits <- 0;
  m.data_lb_hits <- 0

(* Domain-local pool of models.  Their cache tag/LRU and predictor
   arrays are ~160 KB per simulation and live on the major heap;
   reusing them across runs replaces that churn with a cheap reset.
   Same steal-on-use discipline as [State]'s arena: the slot is emptied
   while the model is live, so a re-entrant simulation on the same
   domain simply allocates a fresh one. *)
let model_pool : (Config.t * model) option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let take_model (config : Config.t) =
  let slot = Domain.DLS.get model_pool in
  match !slot with
  | Some (key, m) when key == config ->
    slot := None;
    reset_model m;
    m
  | _ -> create_model config

let release_model config m = Domain.DLS.get model_pool := Some (config, m)

(* A new cycle frees every FU: four stores, not an [Array.fill] (a C
   call) on every cycle advance. *)
let clear_fu u =
  u.!(0) <- 0;
  u.!(1) <- 0;
  u.!(2) <- 0;
  u.!(3) <- 0

let simulate_internal ?(config = Config.default) ?(fuel = 200_000_000)
    ?(mem_words = 1 lsl 20) ?on_branch_progress
    ?(telemetry = Vp_telemetry.disabled) image =
  let f =
    Vp_util.Identity_memo.find_or_add facts_memo (image, config) build_facts
  in
  let info = f.info in
  (* The decoded use/def register slices (CSR), read in place. *)
  let d = Compile.decode f.compiled in
  let btarget = d.Decode.target in
  let uses_off = d.Decode.uses_off in
  let uses = d.Decode.uses in
  let defs_off = d.Decode.defs_off in
  let defs = d.Decode.defs in
  let m = take_model config in
  let l1i = m.l1i and l1d = m.l1d and l2 = m.l2 and pred = m.pred in
  let fu_used = m.fu_used and fu_limit = m.fu_limit in
  let reg_ready = m.reg_ready in
  (* Captured as immediate ints so the walker does not chase the config
     record on every instruction. *)
  let instr_bytes = config.Config.instr_bytes in
  let word_bytes = config.Config.word_bytes in
  let issue_width = config.Config.issue_width in
  let l2_latency = config.Config.l2_latency in
  let memory_latency = config.Config.memory_latency in
  let branch_resolution = config.Config.branch_resolution in
  (* Telemetry: per-interval deltas of the timing-model series, flushed
     when the retired count reaches [tl_next] ([max_int] on the
     disabled timeline, so the walker pays one compare).  All
     registration and last-value state exists only when the timeline is
     enabled (the registers are no-ops on the disabled timeline). *)
  let tl = telemetry in
  let tl_interval = Vp_telemetry.interval_length tl in
  let s_instr = Vp_telemetry.Series.register tl "timing.instructions" in
  let s_cycles = Vp_telemetry.Series.register tl "timing.cycles" in
  let s_icache = Vp_telemetry.Series.register tl "timing.icache_misses" in
  let s_dcache = Vp_telemetry.Series.register tl "timing.dcache_misses" in
  let s_l2 = Vp_telemetry.Series.register tl "timing.l2_misses" in
  let s_mispred = Vp_telemetry.Series.register tl "timing.mispredicts" in
  let s_fstall = Vp_telemetry.Series.register tl "timing.fetch_stalls" in
  let s_dstall = Vp_telemetry.Series.register tl "timing.data_stalls" in
  let tl_next =
    ref (if Vp_telemetry.enabled tl then tl_interval else max_int)
  in
  let tl_last = Array.make 7 0 in
  let tl_flush n =
    Vp_telemetry.Series.push tl s_instr n;
    let delta i s cur =
      Vp_telemetry.Series.push tl s (cur - tl_last.(i));
      tl_last.(i) <- cur
    in
    (* [m.cycle + 1] is the cycle-count convention of [stats.cycles]
       (index of the last cycle -> number of cycles), so the interval
       deltas telescope to exactly the reported total. *)
    delta 0 s_cycles (m.cycle + 1);
    delta 1 s_icache (Cache.misses l1i);
    delta 2 s_dcache (Cache.misses l1d);
    delta 3 s_l2 (Cache.misses l2);
    delta 4 s_mispred (Predictor.stats pred).Predictor.mispredictions;
    delta 5 s_fstall m.fetch_stalls;
    delta 6 s_dstall m.data_stalls
  in
  (* Extra latency after an L1 miss; the L1-hit fast path is inlined
     at the call sites so the per-instruction cost is one [Cache.access]
     call, not a closure call wrapping it. *)
  let l2_penalty addr =
    if Cache.access l2 ~addr then l2_latency
    else l2_latency + memory_latency
  in
  (* The walker: one call per retirement run from the compiled
     emulator, one loop iteration per retired instruction.  Only the
     last instruction of a run can transfer control (every control
     kind ends a block), and only it uses [taken]/[next_pc].  The
     hottest model fields live in locals for the run and are written
     back before anything that reads the model (the telemetry flush)
     and at the run's end. *)
  let on_run ~addrs ~start ~len ~taken ~next_pc =
    let cycle = ref m.cycle in
    let width_used = ref m.width_used in
    let fetch_ready = ref m.fetch_ready in
    let instructions = ref m.instructions in
    let fetch_line = ref m.fetch_line in
    let fetch_lb_hits = ref m.fetch_lb_hits in
    let data_line = ref m.data_line in
    let data_lb_hits = ref m.data_lb_hits in
    for pc = start to start + len - 1 do
      let fact = info.!(pc) in
      let kind = fact land kind_mask in
      incr instructions;
      (* Fetch: I-cache access for this instruction's line. *)
      let line = fact lsr line_shift in
      if line = !fetch_line then incr fetch_lb_hits
      else begin
        fetch_line := line;
        let fetch_addr = pc * instr_bytes in
        if not (Cache.access l1i ~addr:fetch_addr) then
          fetch_ready := imax !fetch_ready (!cycle + l2_penalty fetch_addr)
      end;
      (* Earliest issue: fetch and operands (decoded use set). *)
      let op_ready = ref 0 in
      for i = uses_off.!(pc) to uses_off.!(pc + 1) - 1 do
        let r = reg_ready.!((uses.!(i) :> int)) in
        if r > !op_ready then op_ready := r
      done;
      let op_ready = !op_ready in
      let earliest = imax !fetch_ready op_ready in
      if earliest > !cycle then begin
        (if !fetch_ready >= op_ready then
           m.fetch_stalls <- m.fetch_stalls + (earliest - !cycle)
         else m.data_stalls <- m.data_stalls + (earliest - !cycle));
        cycle := earliest;
        width_used := 0;
        clear_fu fu_used
      end;
      (* Structural hazards: issue width and FU availability. *)
      let fu = (fact lsr fu_shift) land 3 in
      while !width_used >= issue_width || fu_used.!(fu) >= fu_limit.!(fu) do
        incr cycle;
        width_used := 0;
        clear_fu fu_used
      done;
      fu_used.!(fu) <- fu_used.!(fu) + 1;
      incr width_used;
      (* Result latency, plus D-cache behaviour for memory operations. *)
      let base_latency = (fact lsr latency_shift) land latency_mask in
      let latency =
        if kind = kind_load then begin
          let mem_addr = addrs.!(pc - start) in
          base_latency
          + (if mem_addr >= 0 then begin
               let a = mem_addr * word_bytes in
               let line = Cache.line_index l1d a in
               if line = !data_line then begin
                 incr data_lb_hits;
                 0
               end
               else begin
                 data_line := line;
                 if Cache.access l1d ~addr:a then 0 else l2_penalty a
               end
             end
             else 0)
        end
        else begin
          if kind = kind_store then begin
            let mem_addr = addrs.!(pc - start) in
            if mem_addr >= 0 then begin
              let a = mem_addr * word_bytes in
              let line = Cache.line_index l1d a in
              if line = !data_line then incr data_lb_hits
              else begin
                data_line := line;
                if not (Cache.access l1d ~addr:a) then ignore (l2_penalty a)
              end
            end
          end;
          base_latency
        end
      in
      for i = defs_off.!(pc) to defs_off.!(pc + 1) - 1 do
        reg_ready.!((defs.!(i) :> int)) <- !cycle + latency
      done;
      (* Control flow: fetch redirects and mispredictions.  Every
         conditional branch must consult the predictor and fire
         [on_branch_progress]: the emulator and the HSD count every
         [Br], so skipping any here would silently shift phase
         attribution in {!simulate_phases}. *)
      if kind >= kind_br then begin
        if kind = kind_br then begin
          let correct = Predictor.predict_branch pred ~pc ~taken in
          if not correct then
            fetch_ready := imax !fetch_ready (!cycle + branch_resolution)
          else if taken then begin
            let btb_hit =
              Predictor.btb_lookup pred ~pc ~target:btarget.!(pc)
            in
            m.taken_redirects <- m.taken_redirects + 1;
            fetch_ready := imax !fetch_ready (!cycle + if btb_hit then 1 else 2)
          end;
          match on_branch_progress with
          | Some f -> f ~cycles:!cycle ~instructions:!instructions
          | None -> ()
        end
        else if kind = kind_jmp then
          fetch_ready := imax !fetch_ready (!cycle + 1)
        else if kind = kind_call then begin
          Predictor.call_push pred ~return_addr:(pc + 1);
          fetch_ready := imax !fetch_ready (!cycle + 1)
        end
        else if kind = kind_ret then begin
          let correct = Predictor.ret_predict pred ~actual:next_pc in
          fetch_ready :=
            imax !fetch_ready
              (!cycle + if correct then 1 else branch_resolution)
        end
        else
          (* [kind_br_unresolved]: reachable only when not taken — a
             taken unresolved branch already faulted inside the
             emulator. *)
          match Instr.target d.Decode.code.(pc) with
          | Some (Instr.Label l) ->
            Vp_util.Error.failf ~stage:"pipeline" ~label:l ~pc
              "unresolved label %s in branch at 0x%x" l pc
          | _ -> assert false
      end;
      if !instructions = !tl_next then begin
        tl_next := !tl_next + tl_interval;
        m.cycle <- !cycle;
        tl_flush tl_interval
      end
    done;
    m.cycle <- !cycle;
    m.width_used <- !width_used;
    m.fetch_ready <- !fetch_ready;
    m.instructions <- !instructions;
    m.fetch_line <- !fetch_line;
    m.fetch_lb_hits <- !fetch_lb_hits;
    m.data_line <- !data_line;
    m.data_lb_hits <- !data_lb_hits
  in
  let st = State.create ~mem_words image in
  let (_ : Compile.result) = Compile.exec f.compiled st ~fuel ~on_run () in
  State.release st;
  let tail = m.instructions - (!tl_next - tl_interval) in
  if Vp_telemetry.enabled tl && tail > 0 then tl_flush tail;
  let pstats = Predictor.stats pred in
  let total_cycles = m.cycle + 1 in
  let result =
    {
      cycles = total_cycles;
      instructions = m.instructions;
      ipc =
        (if total_cycles = 0 then 0.0
         else float_of_int m.instructions /. float_of_int total_cycles);
      branch_mispredicts = pstats.Predictor.mispredictions;
      ras_mispredicts = pstats.Predictor.ras_misses;
      taken_redirects = m.taken_redirects;
      icache_misses = Cache.misses l1i;
      dcache_misses = Cache.misses l1d;
      l2_misses = Cache.misses l2;
      fetch_stall_cycles = m.fetch_stalls;
      data_stall_cycles = m.data_stalls;
      fetch_line_buffer_hits = m.fetch_lb_hits;
      data_line_buffer_hits = m.data_lb_hits;
    }
  in
  release_model config m;
  result

(* [backend] is accepted and ignored: the retire feed always comes from
   the compiled emulator, whose stream every backend matches
   bit-for-bit.  The parameter stays for callers that still pass one. *)
let simulate ?config ?backend:(_ : Vp_exec.Emulator.backend option) ?fuel
    ?mem_words ?telemetry image =
  simulate_internal ?config ?fuel ?mem_words ?telemetry image

type phase_stats = {
  phase : int;
  branches : int;
  seg_cycles : int;
  seg_instructions : int;
  seg_ipc : float;
}

let simulate_phases ?config ?fuel ?mem_words ~timeline image =
  (* The timeline gives [(start, stop, phase)] intervals in dynamic
     conditional-branch indices; attribute cycle/instruction deltas to
     the phase active at each retired branch (interval gaps — detector
     warmup — attribute to phase -1). *)
  let acc : (int, int * int * int) Hashtbl.t = Hashtbl.create 8 in
  let branch_index = ref 0 in
  let last_cycles = ref 0 in
  let last_instructions = ref 0 in
  (* The timeline is sorted and branch indices arrive monotonically, so
     a cursor suffices. *)
  let remaining = ref timeline in
  let phase_of i =
    let rec advance () =
      match !remaining with
      | (_, e, _) :: rest when i >= e ->
        remaining := rest;
        advance ()
      | _ -> ()
    in
    advance ();
    match !remaining with
    | (s, _, p) :: _ when i >= s -> p
    | _ -> -1
  in
  let on_branch_progress ~cycles ~instructions =
    incr branch_index;
    let p = phase_of !branch_index in
    let b, c, n = Option.value ~default:(0, 0, 0) (Hashtbl.find_opt acc p) in
    Hashtbl.replace acc p
      (b + 1, c + (cycles - !last_cycles), n + (instructions - !last_instructions));
    last_cycles := cycles;
    last_instructions := instructions
  in
  let (_ : stats) =
    simulate_internal ?config ?fuel ?mem_words ~on_branch_progress image
  in
  Hashtbl.fold
    (fun phase (branches, seg_cycles, seg_instructions) l ->
      {
        phase;
        branches;
        seg_cycles;
        seg_instructions;
        seg_ipc =
          (if seg_cycles = 0 then 0.0
           else float_of_int seg_instructions /. float_of_int seg_cycles);
      }
      :: l)
    acc []
  |> List.sort (fun a b -> compare a.phase b.phase)

let speedup ~baseline ~optimized =
  if optimized.cycles = 0 then 0.0
  else float_of_int baseline.cycles /. float_of_int optimized.cycles
