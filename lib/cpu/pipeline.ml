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

(* Unchecked array access in the models and the run walker: cache and
   predictor indices are masked (or mod-reduced) into range; every pc
   of a run was validated by the compiled emulator before it retired,
   the per-pc tables have one entry per pc, register numbers are in
   [0, Reg.count) by construction,
   FU indices are in [0, 4), a run's slots are in [0, len) and the
   per-slot penalty arrays cover the longest block. *)
external ( .!() ) : 'a array -> int -> 'a = "%array_unsafe_get"
external ( .!()<- ) : 'a array -> int -> 'a -> unit = "%array_unsafe_set"

(* Monomorphic int max: [Stdlib.max] is polymorphic and goes through
   the generic comparison — a real function call at least once per
   retired instruction on this path. *)
let imax (a : int) (b : int) = if a >= b then a else b

(* The cache and predictor models live in the walker's compilation
   unit: dune's default build profile compiles with -opaque, which
   turns every call into another module into an indirect one
   ([caml_applyN]); here they are direct calls. *)
module Cache = struct
  type t = {
    sets : int;
    assoc : int;
    line_bytes : int;
    line_shift : int;  (* log2 line_bytes, or -1 when not a power of two *)
    set_mask : int;  (* sets - 1, or -1 when sets is not a power of two *)
    tags : int array;  (* sets * assoc, -1 = invalid *)
    lru : int array;  (* higher = more recently used *)
    mru : int array;  (* per set: slot index of the most recent hit/fill *)
    mutable clock : int;
    mutable access_count : int;
    mutable miss_count : int;
  }

  (* log2 of a power of two, -1 otherwise: lets {!line_index} and
     {!access_line} use shift/mask instead of hardware division on the
     usual geometries. *)
  let log2_pow2 n =
    if n <= 0 || n land (n - 1) <> 0 then -1
    else begin
      let k = ref 0 in
      while 1 lsl !k < n do
        incr k
      done;
      !k
    end

  let create (g : Config.cache_geometry) =
    let lines = g.Config.size_bytes / g.Config.line_bytes in
    let sets = max 1 (lines / g.Config.assoc) in
    {
      sets;
      assoc = g.Config.assoc;
      line_bytes = g.Config.line_bytes;
      line_shift = log2_pow2 g.Config.line_bytes;
      set_mask = (if log2_pow2 sets >= 0 then sets - 1 else -1);
      tags = Array.make (sets * g.Config.assoc) (-1);
      lru = Array.make (sets * g.Config.assoc) 0;
      mru = Array.init sets (fun s -> s * g.Config.assoc);
      clock = 0;
      access_count = 0;
      miss_count = 0;
    }

  (* The line number [addr] maps to.  A repeat access to the line a
     cache just served is a guaranteed hit (nothing evicted it in
     between) and may be skipped without changing any later hit/miss
     or victim: collapsing a contiguous same-line run to its first
     access preserves the per-set order of last touches.  The walker's
     line buffers rely on this. *)
  let line_index t addr =
    if t.line_shift >= 0 then addr lsr t.line_shift else addr / t.line_bytes

  (* Access by line number (non-negative).  A hit in the set's
     most-recent slot — the common case: sequential fetch, load/store
     streams — neither ticks the clock nor re-stamps the slot.  That
     slot already holds its set's newest stamp, and every access that
     does stamp ticks first, so every later stamp is still larger than
     every earlier one and each set's LRU order, hence every victim, is
     what a re-stamp would give.  That test is inlined at every call
     site; the rest of the access is one call. *)
  let access_rest t set line =
    t.clock <- t.clock + 1;
    let base = set * t.assoc in
    let slot = ref (-1) in
    let i = ref 0 in
    while !slot < 0 && !i < t.assoc do
      if t.tags.!(base + !i) = line then slot := base + !i;
      incr i
    done;
    if !slot >= 0 then begin
      t.lru.!(!slot) <- t.clock;
      t.mru.!(set) <- !slot;
      true
    end
    else begin
      t.miss_count <- t.miss_count + 1;
      (* LRU victim (invalid slots have lru 0 and lose ties). *)
      let victim = ref base in
      for i = 1 to t.assoc - 1 do
        if t.lru.!(base + i) < t.lru.!(!victim) then victim := base + i
      done;
      t.tags.!(!victim) <- line;
      t.lru.!(!victim) <- t.clock;
      t.mru.!(set) <- !victim;
      false
    end

  let[@inline] access_line t line =
    t.access_count <- t.access_count + 1;
    let set =
      if t.set_mask >= 0 then line land t.set_mask else line mod t.sets
    in
    t.tags.!(t.mru.!(set)) = line || access_rest t set line

  let access t ~addr = access_line t (line_index t addr)

  (* Return the model to its post-{!create} state, reusing the
     multi-kilobyte tag/LRU arrays. *)
  let reset t =
    Array.fill t.tags 0 (Array.length t.tags) (-1);
    Array.fill t.lru 0 (Array.length t.lru) 0;
    Array.iteri (fun s _ -> t.mru.(s) <- s * t.assoc) t.mru;
    t.clock <- 0;
    t.access_count <- 0;
    t.miss_count <- 0

  let accesses t = t.access_count
  let misses t = t.miss_count
end

module Predictor = struct
  type t = {
    history_mask : int;
    mutable history : int;
    counters : int array;  (* 2-bit saturating *)
    btb_tags : int array;
    btb_targets : int array;
    btb_mask : int;  (* entries - 1 when a power of two, else -1 *)
    ras : int array;
    ras_mask : int;  (* entries - 1 when a power of two, else -1 *)
    mutable ras_top : int;  (* number of valid entries, wraps *)
    mutable n_branches : int;
    mutable n_mispredictions : int;
    mutable n_btb_lookups : int;
    mutable n_btb_misses : int;
    mutable n_returns : int;
    mutable n_ras_misses : int;
  }

  type stats = {
    branches : int;
    mispredictions : int;
    btb_lookups : int;
    btb_misses : int;
    returns : int;
    ras_misses : int;
  }

  let pow2_mask n = if n > 0 && n land (n - 1) = 0 then n - 1 else -1

  let create (cfg : Config.t) =
    let table_size = 1 lsl cfg.Config.gshare_history_bits in
    {
      history_mask = table_size - 1;
      history = 0;
      counters = Array.make table_size 1;
      btb_tags = Array.make cfg.Config.btb_entries (-1);
      btb_targets = Array.make cfg.Config.btb_entries 0;
      btb_mask = pow2_mask cfg.Config.btb_entries;
      ras = Array.make cfg.Config.ras_entries 0;
      ras_mask = pow2_mask cfg.Config.ras_entries;
      ras_top = 0;
      n_branches = 0;
      n_mispredictions = 0;
      n_btb_lookups = 0;
      n_btb_misses = 0;
      n_returns = 0;
      n_ras_misses = 0;
    }

  let reset t =
    t.history <- 0;
    Array.fill t.counters 0 (Array.length t.counters) 1;
    Array.fill t.btb_tags 0 (Array.length t.btb_tags) (-1);
    Array.fill t.btb_targets 0 (Array.length t.btb_targets) 0;
    Array.fill t.ras 0 (Array.length t.ras) 0;
    t.ras_top <- 0;
    t.n_branches <- 0;
    t.n_mispredictions <- 0;
    t.n_btb_lookups <- 0;
    t.n_btb_misses <- 0;
    t.n_returns <- 0;
    t.n_ras_misses <- 0

  let[@inline] predict_branch t ~pc ~taken =
    t.n_branches <- t.n_branches + 1;
    let index = (pc lxor t.history) land t.history_mask in
    let counter = t.counters.!(index) in
    let prediction = counter >= 2 in
    (* Saturating 2-bit update with int compares: [Stdlib.min]/[max]
       are polymorphic calls on this per-branch path. *)
    t.counters.!(index) <-
      (if taken then (if counter < 3 then counter + 1 else 3)
       else if counter > 0 then counter - 1
       else 0);
    t.history <-
      ((t.history lsl 1) lor if taken then 1 else 0) land t.history_mask;
    let correct = prediction = taken in
    if not correct then t.n_mispredictions <- t.n_mispredictions + 1;
    correct

  let[@inline] btb_lookup t ~pc ~target =
    t.n_btb_lookups <- t.n_btb_lookups + 1;
    let slot =
      if t.btb_mask >= 0 then pc land t.btb_mask
      else pc mod Array.length t.btb_tags
    in
    let hit = t.btb_tags.!(slot) = pc && t.btb_targets.!(slot) = target in
    if not hit then begin
      t.n_btb_misses <- t.n_btb_misses + 1;
      t.btb_tags.!(slot) <- pc;
      t.btb_targets.!(slot) <- target
    end;
    hit

  let ras_slot t i =
    if t.ras_mask >= 0 then i land t.ras_mask else i mod Array.length t.ras

  let call_push t ~return_addr =
    t.ras.!(ras_slot t t.ras_top) <- return_addr;
    t.ras_top <- t.ras_top + 1

  let ret_predict t ~actual =
    t.n_returns <- t.n_returns + 1;
    let correct =
      if t.ras_top = 0 then false
      else begin
        t.ras_top <- t.ras_top - 1;
        t.ras.!(ras_slot t t.ras_top) = actual
      end
    in
    if not correct then t.n_ras_misses <- t.n_ras_misses + 1;
    correct

  let stats t =
    {
      branches = t.n_branches;
      mispredictions = t.n_mispredictions;
      btb_lookups = t.n_btb_lookups;
      btb_misses = t.n_btb_misses;
      returns = t.n_returns;
      ras_misses = t.n_ras_misses;
    }
end

let fu_index = function
  | Op.Ialu -> 0
  | Op.Fp | Op.Long_fp -> 1
  | Op.Mem -> 2
  | Op.Control -> 3

(* Per-pc timing facts, one packed int per pc: the kind (what the
   walker does beyond issue: a D-cache access, a control redirect), the
   FU class, the base result latency, at a block leader its block
   descriptor (offset in [desc] plus 1; 0 = none), and the pc's I-cache
   line.  With the line precomputed, fetch needs no address arithmetic:
   the line buffer hits when the line equals the last one fetched.
   Beside it, each pc's operand registers: its use and def masks
   unpacked once into [operands] form, so the walk reads registers
   without scanning mask bits. *)
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
let desc_shift = 13
let desc_mask = (1 lsl 24) - 1
let line_shift = 37

(* A register mask as the walk reads it: each register [r] of the mask
   as a 6-bit field [r + 1], lowest register in the lowest field; a 0
   field ends the list.  No instruction reads or writes more than six
   registers ([Call]), so 36 bits suffice. *)
let operands mask =
  List.fold_right
    (fun (r : Reg.t) x -> (x lsl 6) lor ((r :> int) + 1))
    (Reg.of_mask mask) 0

(* Block descriptors, one flat int array for the image.  A block's
   descriptor is three header words, then its events: the
   stream-determined work of the whole block in program order, one int
   each — an I-line event (slot 0, then every slot whose line differs
   from the previous slot's) or a load/store slot.  An I-line event
   sorts before the memory op of the same slot, the order in which the
   per-instruction walk accesses the caches.  Then its upward-exposed
   live-in registers in ascending order (registers the image never
   defines are left out: their ready time stays 0), and the registers
   it defines, ascending. *)
let hdr_len = 0 (* len | (len - I-line events) << 20 | last kind << 40
                   | live-ins << 43 | defs << 49 *)
let hdr_last_line = 1
let hdr_block = 2 (* block id | events << 32 *)
let hdr_words = 3
let field_mask = (1 lsl 20) - 1
let block_mask = (1 lsl 32) - 1
let ev_fetch = 0
let ev_load = 1
let ev_store = 2
let ev_slot_shift = 2
let ev_line_shift = 22

(* A block's memo key is [key_words_for live-ins] ints.  The first
   packs, from bit 0: the fetch offset (7 bits), the used issue width
   (4), the four FU counters (4 each) and the first seven live-ins, 5
   bits each — 62 bits.  Every further word packs twelve more
   live-ins. *)
let live_key_shift = 27

let[@inline] key_words_for n_live =
  if n_live <= 7 then 1 else 1 + ((n_live - 7 + 11) / 12)

(* A memo entry: the key words, the cycle advance, the final issue
   width and packed FU counters, the fetch- and data-stall deltas,
   then one ready offset per defined register. *)
let entry_fields = 5

let kind_of_tag tg =
  if tg = Decode.tag_load then kind_load
  else if tg = Decode.tag_store then kind_store
  else if tg = Decode.tag_br then kind_br
  else if tg = Decode.tag_jmp then kind_jmp
  else if tg = Decode.tag_call then kind_call
  else if tg = Decode.tag_ret then kind_ret
  else if tg = Decode.tag_br_unresolved then kind_br_unresolved
  else kind_other

(* The upward-exposed live-ins (registers read before any write) and
   the defs of the block [start, start + len), as masks. *)
let block_regs code start len =
  let live = ref 0 and defs = ref 0 in
  for pc = start to start + len - 1 do
    let i = code.(pc) in
    live := !live lor (Instr.use_mask i land lnot !defs);
    defs := !defs lor Instr.def_mask i
  done;
  (!live, !defs)

(* Pass the block's events to [f] in program order; the number of
   I-line events. *)
let scan_events info start len f =
  let line = ref (-1) and lines = ref 0 in
  for slot = 0 to len - 1 do
    let fact = info.(start + slot) in
    let l = fact lsr line_shift in
    if l <> !line then begin
      line := l;
      incr lines;
      f ((l lsl ev_line_shift) lor (slot lsl ev_slot_shift) lor ev_fetch)
    end;
    let kind = fact land kind_mask in
    if kind = kind_load then f ((slot lsl ev_slot_shift) lor ev_load)
    else if kind = kind_store then f ((slot lsl ev_slot_shift) lor ev_store)
  done;
  !lines

(* The machine state of one simulation: three caches, the predictor,
   the scoreboard, the issue/fetch counters and the per-slot penalties
   phase 1 leaves for the issue walk, plus the timing facts of the
   image it times.  The four FU counters are packed [fu_bits] bits each
   into [fu_used]: 4 whenever no counter can exceed 15 (a counter never
   exceeds its unit count or the issue width), which is also what a
   block memo key needs. *)
type model = {
  config : Config.t;
  l1i : Cache.t;
  l1d : Cache.t;
  l2 : Cache.t;
  pred : Predictor.t;
  fu_limit : int array;
  fu_bits : int;
  reg_ready : int array;
  mutable pen_fetch : int array;  (* per slot: I-miss penalty, 0 = none *)
  mutable pen_load : int array;  (* per slot: load-miss penalty *)
  mutable missed : bool;  (* phase 1 recorded a penalty *)
  mutable key_rest : int array;  (* a signature's words after the first *)
  (* Block memos: every block's table is bump-allocated in [memo] when
     the block first runs whole; [memo_at] maps a block to its table's
     offset (-1 = none yet).  Both are reused across simulations, and
     emptied at the start of each. *)
  mutable memo_at : int array;
  mutable memo : int array;
  mutable memo_top : int;
  mutable cycle : int;
  mutable width_used : int;
  mutable fu_used : int;
  mutable fetch_ready : int;
  mutable fetch_stalls : int;
  mutable data_stalls : int;
  mutable taken_redirects : int;
  mutable instructions : int;
  (* Line buffers, as in a real fetch/load unit: a repeat access to
     the line the cache just served is a guaranteed hit and is not
     replayed (see [Cache.line_index]). *)
  mutable fetch_line : int;
  mutable data_line : int;
  mutable fetch_lb_hits : int;
  mutable data_lb_hits : int;
  (* The facts of [image], built by [load_facts] into arrays that grow
     but are never given back, so a pooled model times image after
     image without allocating: [info] has one fact per pc, [uses] and
     [defs] its {!operands}, [desc] the block descriptors. *)
  mutable image : Vp_prog.Image.t option;
  mutable info : int array;
  mutable uses : int array;
  mutable defs : int array;
  mutable desc : int array;
  mutable blocks : int;
  mutable max_len : int;
  mutable max_key_words : int;
}

let create_model (config : Config.t) =
  let fu_limit =
    [|
      config.Config.ialu_units;
      config.Config.fp_units;
      config.Config.mem_units;
      config.Config.branch_units;
    |]
  in
  let cap =
    Array.fold_left (fun a l -> max a (min l config.Config.issue_width)) 0
      fu_limit
  in
  if cap >= 1 lsl 15 then invalid_arg "Pipeline: more than 32767 units per FU class";
  {
    config;
    l1i = Cache.create config.Config.l1i;
    l1d = Cache.create config.Config.l1d;
    l2 = Cache.create config.Config.l2;
    pred = Predictor.create config;
    fu_limit;
    fu_bits = (if cap <= 15 then 4 else 15);
    reg_ready = Array.make Reg.count 0;
    pen_fetch = [||];
    pen_load = [||];
    missed = false;
    key_rest = [||];
    memo_at = [||];
    memo = [||];
    memo_top = 0;
    cycle = 0;
    width_used = 0;
    fu_used = 0;
    fetch_ready = 0;
    fetch_stalls = 0;
    data_stalls = 0;
    taken_redirects = 0;
    instructions = 0;
    fetch_line = -1;
    data_line = -1;
    fetch_lb_hits = 0;
    data_lb_hits = 0;
    image = None;
    info = [||];
    uses = [||];
    defs = [||];
    desc = [||];
    blocks = 0;
    max_len = 1;
    max_key_words = 1;
  }

let reset_model m =
  Cache.reset m.l1i;
  Cache.reset m.l1d;
  Cache.reset m.l2;
  Predictor.reset m.pred;
  Array.fill m.reg_ready 0 Reg.count 0;
  Array.fill m.pen_fetch 0 (Array.length m.pen_fetch) 0;
  Array.fill m.pen_load 0 (Array.length m.pen_load) 0;
  m.missed <- false;
  m.cycle <- 0;
  m.width_used <- 0;
  m.fu_used <- 0;
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
let model_pool : model option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

(* Build the per-pc facts and the block descriptors of [image] into
   [m], unless [m] last timed the same image.  One pass over the
   blocks, growing [m.desc] by doubling.  A block too long for an
   event's slot field, or past the offsets a fact can hold, gets no
   descriptor: its runs are walked one instruction at a time. *)
let load_facts m (image : Vp_prog.Image.t) compiled =
  match m.image with
  | Some i when i == image -> ()
  | _ ->
    m.image <- None;
    let d = Compile.decode compiled in
    let code = d.Decode.code in
    let n = Decode.size d in
    let instr_bytes = m.config.Config.instr_bytes in
    let line_bytes = m.config.Config.l1i.Config.line_bytes in
    if Array.length m.info < n then begin
      m.info <- Array.make n 0;
      m.uses <- Array.make n 0;
      m.defs <- Array.make n 0
    end;
    let info = m.info in
    let defined = ref 0 in
    for pc = 0 to n - 1 do
      let i = code.(pc) in
      let latency = Instr.latency i in
      assert (latency >= 0 && latency <= latency_mask);
      info.(pc) <-
        kind_of_tag d.Decode.tag.(pc)
        lor (fu_index (Instr.fu i) lsl fu_shift)
        lor (latency lsl latency_shift)
        (* [Cache.line_index] of the fetch address, which is
           non-negative: the shift and the division agree. *)
        lor ((pc * instr_bytes / line_bytes) lsl line_shift);
      m.uses.(pc) <- operands (Instr.use_mask i);
      m.defs.(pc) <- operands (Instr.def_mask i);
      defined := !defined lor Instr.def_mask i
    done;
    let top = ref 0 in
    let put x =
      if !top = Array.length m.desc then begin
        let bigger = Array.make (max 1024 (2 * !top)) 0 in
        Array.blit m.desc 0 bigger 0 !top;
        m.desc <- bigger
      end;
      m.desc.(!top) <- x;
      incr top
    in
    let put_regs mask = List.iter (fun (r : Reg.t) -> put (r :> int)) (Reg.of_mask mask) in
    let nb = Compile.block_count compiled in
    let max_len = ref 1 and max_key_words = ref 1 in
    for b = 0 to nb - 1 do
      let start, len = Compile.block_bounds compiled b in
      max_len := max !max_len len;
      let o = !top in
      if len <= field_mask && o < desc_mask then begin
        for _ = 1 to hdr_words do
          put 0
        done;
        let n_lines = scan_events info start len put in
        let live = !top in
        let n_events = live - (o + hdr_words) in
        let live_in, block_defs = block_regs code start len in
        put_regs (live_in land !defined);
        let defs = !top in
        put_regs block_defs;
        let n_live = defs - live and n_defs = !top - defs in
        let last = start + len - 1 in
        m.desc.(o + hdr_len) <-
          len lor ((len - n_lines) lsl 20)
          lor ((info.(last) land kind_mask) lsl 40)
          lor (n_live lsl 43) lor (n_defs lsl 49);
        m.desc.(o + hdr_last_line) <- info.(last) lsr line_shift;
        m.desc.(o + hdr_block) <- b lor (n_events lsl 32);
        info.(start) <- info.(start) lor ((o + 1) lsl desc_shift);
        max_key_words := max !max_key_words (key_words_for n_live)
      end
    done;
    m.blocks <- nb;
    m.max_len <- !max_len;
    m.max_key_words <- !max_key_words;
    m.image <- Some image

let take_model (config : Config.t) image compiled =
  let slot = Domain.DLS.get model_pool in
  let m =
    match !slot with
    | Some m when m.config == config ->
      slot := None;
      reset_model m;
      m
    | _ -> create_model config
  in
  load_facts m image compiled;
  if Array.length m.pen_fetch < m.max_len then begin
    m.pen_fetch <- Array.make m.max_len 0;
    m.pen_load <- Array.make m.max_len 0
  end;
  if Array.length m.key_rest < m.max_key_words - 1 then
    m.key_rest <- Array.make (m.max_key_words - 1) 0;
  if Array.length m.memo_at < m.blocks then
    m.memo_at <- Array.make m.blocks (-1)
  else Array.fill m.memo_at 0 m.blocks (-1);
  m.memo_top <- 0;
  m

let release_model m = Domain.DLS.get model_pool := Some m

(* Each block's memo table is a round-robin cursor, then [memo_ways]
   entries of [entry_words] ints; an empty entry's first key word is
   -1. *)
let memo_ways = 4

(* A fresh, empty table for block [b] in the model's memo arena. *)
let new_table m b ~words =
  let size = 1 + (memo_ways * words) in
  let top = m.memo_top in
  if top + size > Array.length m.memo then begin
    let bigger = Array.make (max (2 * Array.length m.memo) (top + size)) 0 in
    Array.blit m.memo 0 bigger 0 top;
    m.memo <- bigger
  end;
  m.memo.(top) <- 0;
  Array.fill m.memo (top + 1) (size - 1) (-1);
  m.memo_top <- top + size;
  m.memo_at.(b) <- top;
  top

let simulate_internal ?(config = Config.default) ?(fuel = 200_000_000)
    ?(mem_words = 1 lsl 20) ?on_branch_progress
    ?(telemetry = Vp_telemetry.disabled) image =
  let compiled = Compile.of_image image in
  let m = take_model config image compiled in
  let info = m.info and desc = m.desc in
  let uses = m.uses and defs = m.defs in
  let d = Compile.decode compiled in
  let btarget = d.Decode.target in
  let l1i = m.l1i and l1d = m.l1d and l2 = m.l2 and pred = m.pred in
  let fu_limit = m.fu_limit and fu_bits = m.fu_bits in
  let fu_mask = (1 lsl fu_bits) - 1 in
  let reg_ready = m.reg_ready in
  let pen_fetch = m.pen_fetch and pen_load = m.pen_load in
  let key_rest = m.key_rest in
  (* Captured as immediate ints so the walker does not chase the config
     record on every instruction. *)
  let instr_bytes = config.Config.instr_bytes in
  let word_bytes = config.Config.word_bytes in
  let issue_width = config.Config.issue_width in
  let l2_latency = config.Config.l2_latency in
  let memory_latency = config.Config.memory_latency in
  let branch_resolution = config.Config.branch_resolution in
  (* Telemetry: per-interval deltas of the timing-model series, flushed
     by the sampler when the retired count reaches its [due] ([max_int]
     on the disabled timeline, so the walker pays one compare).  All
     registration and last-value state exists only when the timeline is
     enabled (the registers are no-ops on the disabled timeline). *)
  let tl = telemetry in
  let s_instr = Vp_telemetry.Series.register tl "timing.instructions" in
  let s_cycles = Vp_telemetry.Series.register tl "timing.cycles" in
  let s_icache = Vp_telemetry.Series.register tl "timing.icache_misses" in
  let s_dcache = Vp_telemetry.Series.register tl "timing.dcache_misses" in
  let s_l2 = Vp_telemetry.Series.register tl "timing.l2_misses" in
  let s_mispred = Vp_telemetry.Series.register tl "timing.mispredicts" in
  let s_fstall = Vp_telemetry.Series.register tl "timing.fetch_stalls" in
  let s_dstall = Vp_telemetry.Series.register tl "timing.data_stalls" in
  let tl_last = Array.make 7 0 in
  let sampler =
    Vp_telemetry.Sampler.create tl ~flush:(fun n ->
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
        delta 6 s_dstall m.data_stalls)
  in
  (* Block memos serve whole runs only when no timeline is sampling
     (its flushes need exact instruction counts) and the FU counters
     fit a key.  They start empty on every simulation. *)
  let memo_on = m.fu_bits = 4 && not (Vp_telemetry.enabled tl) in
  let memo_at = m.memo_at in
  (* Phase 1: the stream-determined work.  Cache, line-buffer and
     predictor outcomes depend only on the order of retired
     instructions and their addresses, never on cycle counts, so they
     can run ahead of issue.  A penalty is recorded per slot only where
     it costs cycles: an I-miss, a load miss.  A store miss changes L2
     state but no timing. *)
  let l2_penalty addr =
    if Cache.access_line l2 (Cache.line_index l2 addr) then l2_latency
    else l2_latency + memory_latency
  in
  let[@inline] data_access ~load slot mem_addr =
    if mem_addr >= 0 then begin
      let a = mem_addr * word_bytes in
      let line = Cache.line_index l1d a in
      if line = m.data_line then m.data_lb_hits <- m.data_lb_hits + 1
      else begin
        m.data_line <- line;
        if not (Cache.access_line l1d line) then begin
          let p = l2_penalty a in
          if load then begin
            pen_load.!(slot) <- p;
            m.missed <- true
          end
        end
      end
    end
  in
  let[@inline] fetch_access ~start slot line =
    if not (Cache.access_line l1i line) then begin
      pen_fetch.!(slot) <- l2_penalty ((start + slot) * instr_bytes);
      m.missed <- true
    end
  in
  (* Phase 1 of one instruction, for runs walked one by one. *)
  let phase1_slot ~addrs ~start fact kind slot =
    let line = fact lsr line_shift in
    if line = m.fetch_line then m.fetch_lb_hits <- m.fetch_lb_hits + 1
    else begin
      m.fetch_line <- line;
      fetch_access ~start slot line
    end;
    if kind = kind_load || kind = kind_store then
      data_access ~load:(kind = kind_load) slot addrs.!(slot)
  in
  (* A run's last instruction at the run's final cycle: the predictor,
     BTB and RAS, the fetch redirect, and the progress callback.  Every
     conditional branch must consult the predictor and fire
     [on_branch_progress]: the emulator and the HSD count every [Br], so
     skipping any here would silently shift phase attribution in
     {!simulate_phases}.  Nothing here feeds a block memo entry. *)
  let[@inline] terminator pc kind ~taken ~next_pc =
    let cycle = m.cycle in
    if kind = kind_br then begin
      let correct = Predictor.predict_branch pred ~pc ~taken in
      if not correct then
        m.fetch_ready <- imax m.fetch_ready (cycle + branch_resolution)
      else if taken then begin
        let btb_hit = Predictor.btb_lookup pred ~pc ~target:btarget.!(pc) in
        m.taken_redirects <- m.taken_redirects + 1;
        m.fetch_ready <- imax m.fetch_ready (cycle + if btb_hit then 1 else 2)
      end;
      match on_branch_progress with
      | Some f -> f ~cycles:cycle ~instructions:m.instructions
      | None -> ()
    end
    else if kind = kind_jmp then m.fetch_ready <- imax m.fetch_ready (cycle + 1)
    else if kind = kind_call then begin
      Predictor.call_push pred ~return_addr:(pc + 1);
      m.fetch_ready <- imax m.fetch_ready (cycle + 1)
    end
    else if kind = kind_ret then begin
      let correct = Predictor.ret_predict pred ~actual:next_pc in
      m.fetch_ready <-
        imax m.fetch_ready (cycle + if correct then 1 else branch_resolution)
    end
    else
      (* [kind_br_unresolved]: reachable only when not taken — a taken
         unresolved branch already faulted inside the emulator. *)
      match Instr.target d.Decode.code.(pc) with
      | Some (Instr.Label l) ->
        Vp_util.Error.failf ~stage:"pipeline" ~label:l ~pc
          "unresolved label %s in branch at 0x%x" l pc
      | _ -> assert false
  in
  (* Phase 2, the issue walk, one instruction at a time: fetch (its
     penalty from phase 1), operand interlocks, issue width and FU
     contention, result latency (plus a load's penalty).  With
     [inline], each instruction runs its own phase 1 first — partial
     runs, and every run while a timeline samples, whose flushes must
     see the caches exactly as of their instruction. *)
  let walk ~inline ~addrs ~start ~len ~taken ~next_pc =
    for slot = 0 to len - 1 do
      let pc = start + slot in
      let fact = info.!(pc) in
      let kind = fact land kind_mask in
      if inline then phase1_slot ~addrs ~start fact kind slot;
      m.instructions <- m.instructions + 1;
      let pf = pen_fetch.!(slot) in
      if pf > 0 then begin
        pen_fetch.!(slot) <- 0;
        m.fetch_ready <- imax m.fetch_ready (m.cycle + pf)
      end;
      (* Earliest issue: fetch and operands. *)
      let op_ready = ref 0 in
      let u = ref uses.!(pc) in
      while !u <> 0 do
        let r = reg_ready.!((!u land 63) - 1) in
        if r > !op_ready then op_ready := r;
        u := !u lsr 6
      done;
      let op_ready = !op_ready in
      let fetch_ready = m.fetch_ready in
      let earliest = imax fetch_ready op_ready in
      if earliest > m.cycle then begin
        (if fetch_ready >= op_ready then
           m.fetch_stalls <- m.fetch_stalls + (earliest - m.cycle)
         else m.data_stalls <- m.data_stalls + (earliest - m.cycle));
        m.cycle <- earliest;
        m.width_used <- 0;
        m.fu_used <- 0
      end;
      (* Structural hazards: issue width and FU availability. *)
      let fu = (fact lsr fu_shift) land 3 in
      let sh = fu * fu_bits in
      let limit = fu_limit.!(fu) in
      while m.width_used >= issue_width || (m.fu_used lsr sh) land fu_mask >= limit
      do
        m.cycle <- m.cycle + 1;
        m.width_used <- 0;
        m.fu_used <- 0
      done;
      m.fu_used <- m.fu_used + (1 lsl sh);
      m.width_used <- m.width_used + 1;
      (* Result latency, plus a load's miss penalty. *)
      let latency = (fact lsr latency_shift) land latency_mask in
      let latency =
        if kind = kind_load then begin
          let p = pen_load.!(slot) in
          if p > 0 then pen_load.!(slot) <- 0;
          latency + p
        end
        else latency
      in
      let ready = m.cycle + latency in
      let w = ref defs.!(pc) in
      while !w <> 0 do
        reg_ready.!((!w land 63) - 1) <- ready;
        w := !w lsr 6
      done;
      if kind >= kind_br then terminator pc kind ~taken ~next_pc;
      if m.instructions = sampler.Vp_telemetry.Sampler.due then
        Vp_telemetry.Sampler.reach sampler m.instructions
    done
  in
  (* The entry signature of a whole block: everything its issue timing
     reads, relative to the entry cycle [c].  Issue is in order and
     [cycle] never falls below [c], so a ready time at or before [c]
     acts exactly like [c]: offsets clamp at 0.  Returns the first key
     word and leaves the others in [key_rest]; -1 when an offset does
     not fit its field.  The live-in loops are branch-free: [clamp] is
     [max 0], and one test of the OR of all offsets catches any that
     overflows 5 bits. *)
  let clamp x = x land lnot (x asr 62) in
  let[@inline] signature ~live ~n_live c =
    let fo = clamp (m.fetch_ready - c) in
    let w = m.width_used in
    if fo > 127 || w > 15 then -1
    else begin
      let first = if n_live > 7 then 7 else n_live in
      let key = ref (fo lor (w lsl 7) lor (m.fu_used lsl 11)) in
      let over = ref 0 in
      for i = 0 to first - 1 do
        let r = clamp (reg_ready.!(desc.!(live + i)) - c) in
        over := !over lor r;
        key := !key lor (r lsl (live_key_shift + (5 * i)))
      done;
      for i = first to n_live - 1 do
        let r = clamp (reg_ready.!(desc.!(live + i)) - c) in
        let j = (i - 7) / 12 in
        let sh = 5 * ((i - 7) mod 12) in
        over := !over lor r;
        key_rest.!(j) <- (if sh = 0 then 0 else key_rest.!(j)) lor (r lsl sh)
      done;
      if !over > 31 then -1 else !key
    end
  in
  let same_rest table e kw =
    let j = ref 1 in
    while !j < kw && table.!(e + !j) = key_rest.!(!j - 1) do
      incr j
    done;
    !j = kw
  in
  (* One call per retirement run from the compiled emulator.  Only the
     last instruction of a run can transfer control (every control kind
     ends a block), and only it uses [taken]/[next_pc].  With the memo
     on, a whole block runs phase 1 by its events, then takes either
     the memoized deltas (a miss-free run with a seen signature) or the
     walk, which records a miss-free run under its signature; any other
     run is walked one instruction at a time. *)
  let memo_run ~addrs ~start ~len ~taken ~next_pc =
    let o = ((info.!(start) lsr desc_shift) land desc_mask) - 1 in
    let h = if o >= 0 then desc.!(o + hdr_len) else 0 in
    if h land field_mask <> len then
      walk ~inline:true ~addrs ~start ~len ~taken ~next_pc
    else begin
      (* Only what the event loop needs is decoded before it: every
         value live across its cache calls costs a spill. *)
      let events = o + hdr_words in
      let events_end = events + (desc.!(o + hdr_block) lsr 32) in
      m.missed <- false;
      let lb = (h lsr 20) land field_mask in
      let first =
        if desc.!(events) lsr ev_line_shift = m.fetch_line then begin
          m.fetch_lb_hits <- m.fetch_lb_hits + lb + 1;
          1
        end
        else begin
          m.fetch_lb_hits <- m.fetch_lb_hits + lb;
          0
        end
      in
      m.fetch_line <- desc.!(o + hdr_last_line);
      for e = events + first to events_end - 1 do
        let x = desc.!(e) in
        let slot = (x lsr ev_slot_shift) land field_mask in
        let typ = x land 3 in
        if typ = ev_fetch then
          fetch_access ~start slot (x lsr ev_line_shift)
        else data_access ~load:(typ = ev_load) slot addrs.!(slot)
      done;
      let c = m.cycle in
      let h = desc.!(o + hdr_len) in
      let n_live = (h lsr 43) land 63 in
      let live = events_end in
      let key = if m.missed then -1 else signature ~live ~n_live c in
      if key < 0 then walk ~inline:false ~addrs ~start ~len ~taken ~next_pc
      else begin
        let n_defs = (h lsr 49) land 63 in
        let defs = live + n_live in
        let kw = key_words_for n_live in
        let words = kw + entry_fields + n_defs in
        let b = desc.!(o + hdr_block) land block_mask in
        let t = memo_at.!(b) in
        let t = if t >= 0 then t else new_table m b ~words in
        let table = m.memo in
        let stop = t + 1 + (memo_ways * words) in
        let e = ref (t + 1) in
        while
          !e < stop
          && not (table.!(!e) = key && (kw = 1 || same_rest table !e kw))
        do
          e := !e + words
        done;
        if !e < stop then begin
          let r = !e + kw in
          m.cycle <- c + table.!(r);
          m.width_used <- table.!(r + 1);
          m.fu_used <- table.!(r + 2);
          m.fetch_stalls <- m.fetch_stalls + table.!(r + 3);
          m.data_stalls <- m.data_stalls + table.!(r + 4);
          for i = 0 to n_defs - 1 do
            reg_ready.!(desc.!(defs + i)) <- c + table.!(r + entry_fields + i)
          done;
          m.instructions <- m.instructions + len;
          let term = (h lsr 40) land kind_mask in
          if term >= kind_br then
            terminator (start + len - 1) term ~taken ~next_pc
        end
        else begin
          let fetch_stalls = m.fetch_stalls and data_stalls = m.data_stalls in
          walk ~inline:false ~addrs ~start ~len ~taken ~next_pc;
          let way = table.!(t) in
          table.!(t) <- (way + 1) land (memo_ways - 1);
          let e = t + 1 + (way * words) in
          table.!(e) <- key;
          for j = 1 to kw - 1 do
            table.!(e + j) <- key_rest.!(j - 1)
          done;
          let r = e + kw in
          table.!(r) <- m.cycle - c;
          table.!(r + 1) <- m.width_used;
          table.!(r + 2) <- m.fu_used;
          table.!(r + 3) <- m.fetch_stalls - fetch_stalls;
          table.!(r + 4) <- m.data_stalls - data_stalls;
          for i = 0 to n_defs - 1 do
            table.!(r + entry_fields + i) <- reg_ready.!(desc.!(defs + i)) - c
          done
        end
      end
    end
  in
  let on_run = if memo_on then memo_run else walk ~inline:true in
  let st = State.create ~mem_words image in
  let (_ : Compile.result) = Compile.exec compiled st ~fuel ~on_run () in
  State.release st;
  Vp_telemetry.Sampler.reach sampler m.instructions;
  Vp_telemetry.Sampler.finish sampler;
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
  release_model m;
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
     warmup — attribute to phase -1).  Per-phase sums live in int
     arrays indexed by [phase - lo], sized from the timeline's phase
     ids, so a branch allocates nothing. *)
  let lo, hi =
    List.fold_left (fun (lo, hi) (_, _, p) -> (min lo p, max hi p)) (-1, -1)
      timeline
  in
  let branches = Array.make (hi - lo + 1) 0 in
  let cycles = Array.make (hi - lo + 1) 0 in
  let instrs = Array.make (hi - lo + 1) 0 in
  let branch_index = ref 0 in
  let last_cycles = ref 0 in
  let last_instructions = ref 0 in
  (* The timeline is sorted and branch indices arrive monotonically, so
     a cursor suffices. *)
  let remaining = ref timeline in
  let phase_of i =
    let advancing = ref true in
    while !advancing do
      match !remaining with
      | (_, e, _) :: rest when i >= e -> remaining := rest
      | _ -> advancing := false
    done;
    match !remaining with
    | (s, _, p) :: _ when i >= s -> p
    | _ -> -1
  in
  let on_branch_progress ~cycles:c ~instructions =
    incr branch_index;
    let k = phase_of !branch_index - lo in
    branches.(k) <- branches.(k) + 1;
    cycles.(k) <- cycles.(k) + (c - !last_cycles);
    instrs.(k) <- instrs.(k) + (instructions - !last_instructions);
    last_cycles := c;
    last_instructions := instructions
  in
  let (_ : stats) =
    simulate_internal ?config ?fuel ?mem_words ~on_branch_progress image
  in
  let acc = ref [] in
  for k = hi - lo downto 0 do
    if branches.(k) > 0 then
      acc :=
        {
          phase = k + lo;
          branches = branches.(k);
          seg_cycles = cycles.(k);
          seg_instructions = instrs.(k);
          seg_ipc =
            (if cycles.(k) = 0 then 0.0
             else float_of_int instrs.(k) /. float_of_int cycles.(k));
        }
        :: !acc
  done;
  !acc

let speedup ~baseline ~optimized =
  if optimized.cycles = 0 then 0.0
  else float_of_int baseline.cycles /. float_of_int optimized.cycles
