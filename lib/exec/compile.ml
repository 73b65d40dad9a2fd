(* Block-threaded closure compilation of a decoded image.

   An interpreter over the decoded form ({!Decode}) pays a
   per-instruction dispatch: fuel check, pc bounds check, tag load,
   match, operand loads, scratch writes, [State.set_pc].  This module
   removes all of it.  The image is partitioned into basic blocks and
   each block is compiled — once, at load time — into a single OCaml
   closure that executes the whole block straight-line over the
   {!State} arena: operands, immediates, ALU ops and branch conditions
   are baked into the closure environments, each instruction closure
   tail-calls its compile-time continuation, and block terminators
   enter the successor block's body directly through a block-indexed
   array (threaded code).  The entry ({!enter} below) is inlined into
   every transfer: it checks fuel once per block, charges the block's
   length and package count, and calls the body.  A block that no
   longer fits in the remaining fuel falls back to a per-instruction
   interpreter at the boundary, so instruction accounting stays exact.
   Registers, memory and the store digest are read and written in the
   state's own arrays and fields, without a call per access; the pc is
   published only on a fault path.

   Two variants of every block exist, each compiled on first use: a
   [fast] one with no observation calls at all, and an [observed] one
   that reports retirement *runs* to the per-run {!ctx}'s closures
   (so compiled code is reusable across runs and observers).  A run is
   one straight-line span of a block, reported by one [on_run] call at
   the block's terminator or fall-through end: loads and stores write
   their effective address into the run's [addrs] buffer at the static
   slot [pc - block start], and the call carries the last
   instruction's [taken] and [next_pc].  The boundary interpreter
   reports runs of length 1, so fuel cuts stay exact.  Outcomes,
   checksums and the expanded observation streams are bit-identical to
   the reference interpreter's ([Emulator.run_backend ~backend:Reference]),
   the differential oracle. *)

module Op = Vp_isa.Op
module Reg = Vp_isa.Reg
module Instr = Vp_isa.Instr
module Image = Vp_prog.Image

(* Unchecked array access on the compiled hot paths: block and pc
   indices are validated at partition/compile time or by the
   interpreter's own bounds check, and a run's [addrs] slot is below
   its block's length, which the buffer covers. *)
external ( .!() ) : 'a array -> int -> 'a = "%array_unsafe_get"
external ( .!()<- ) : 'a array -> int -> 'a -> unit = "%array_unsafe_set"

type on_run =
  addrs:int array -> start:int -> len:int -> taken:bool -> next_pc:int -> unit

(* Per-run execution context.  Compiled closures are shared across
   runs; everything run-specific — state, fuel, counters, observer
   closures — lives here.  [fuel_left] counts down so the per-block
   check is one compare; retired instructions are recovered as
   [fuel - fuel_left].  [run_start] is the first pc of the run not yet
   reported (-1 when none is open): an exception escaping mid-block
   flushes the retired prefix from it (see {!exec}).  [regs] is the
   state's register file; [data], [stack] and [stack_base] mirror its
   memory regions ({!sync} refreshes them after [State.set_mem], the
   only writer that replaces a region).  Compiled code reads and
   writes them without a call per access (a cross-module call is an
   indirect one when modules are compiled without cross-module
   inlining).  [bodies] and [boundary] are the executing variant's
   block bodies and boundary interpreter, which {!enter} reads. *)
type ctx = {
  st : State.t;
  regs : int array;
  mutable data : int array;
  mutable stack : int array;
  mutable stack_base : int;
  mem_words : int;
  mutable fuel_left : int;
  mutable pkg : int;
  mutable branches : int;
  mutable halted : bool;
  mutable run_start : int;
  addrs : int array;
  on_run : on_run;
  bodies : (ctx -> unit) array;
  boundary : ctx -> int -> unit;
}

let sync ctx =
  ctx.data <- ctx.st.State.data;
  ctx.stack <- ctx.st.State.stack;
  ctx.stack_base <- ctx.st.State.stack_base

(* Loads and stores, in place.  They are closed, so they inline into
   the compiled closures, and they end by calling the continuation [k],
   so every path out of them is a tail call and a load's closure needs
   no stack frame.  The data region is tested first, then the stack
   region.  Between the regions, the cold paths run: a load reads 0,
   and a store goes to [State.set_mem], which grows the nearer region,
   after which {!sync} mirrors the new one.  Out of range, the cold
   paths publish the faulting pc, then raise the reference
   interpreter's exact error (the fault flush in {!exec} reads the pc
   to know where the retired prefix ends). *)
let load_fault ctx pc addr =
  State.set_pc ctx.st pc;
  State.load_fault ctx.st addr

let store_fault ctx pc addr =
  State.set_pc ctx.st pc;
  State.store_fault ctx.st addr

(* The fold of one tracked store below the stack floor into the store
   digest, exactly as [State.bump_store_digest] folds it. *)
let digest (st : State.t) addr v ~track =
  if track && addr < st.State.stack_floor then
    st.State.digest <- (((st.State.digest * 31) + addr) * 31) + v
[@@inline]

let load_cold ctx pc addr d0 k =
  if addr >= 0 && addr < ctx.mem_words then begin
    if d0 <> 0 then ctx.regs.!(d0) <- 0;
    k ctx
  end
  else load_fault ctx pc addr

(* Load the word at [addr] into register slot [d0] (discarded for
   r0), then continue. *)
let load ctx pc addr d0 k =
  let data = ctx.data in
  if addr >= 0 && addr < Array.length data then begin
    if d0 <> 0 then ctx.regs.!(d0) <- data.!(addr);
    k ctx
  end
  else
    let sb = ctx.stack_base in
    if addr >= sb && addr < ctx.mem_words then begin
      if d0 <> 0 then ctx.regs.!(d0) <- ctx.stack.!(addr - sb);
      k ctx
    end
    else load_cold ctx pc addr d0 k
[@@inline]

(* Word [i] of the memory region [region], at address [addr], in place:
   the dirty-word journal on a zero-to-nonzero transition (the
   {!State.t} invariant), then the word. *)
let put (st : State.t) region i addr v =
  if region.!(i) = 0 && v <> 0 then State.journal st addr;
  region.!(i) <- v
[@@inline]

let store_cold ctx pc addr v ~track k =
  if addr >= 0 && addr < ctx.mem_words then begin
    State.set_mem ctx.st addr v;
    sync ctx;
    digest ctx.st addr v ~track;
    k ctx
  end
  else store_fault ctx pc addr

(* Store [v] at [addr], fold it into the digest, then continue. *)
let store ctx pc addr v ~track k =
  let data = ctx.data in
  if addr >= 0 && addr < Array.length data then begin
    put ctx.st data addr addr v;
    digest ctx.st addr v ~track;
    k ctx
  end
  else
    let sb = ctx.stack_base in
    if addr >= sb && addr < ctx.mem_words then begin
      put ctx.st ctx.stack (addr - sb) addr v;
      digest ctx.st addr v ~track;
      k ctx
    end
    else store_cold ctx pc addr v ~track k
[@@inline]

(* The block entry, inlined into every transfer: the fuel fit test,
   the block's fuel and package charge, the run's start, then the
   body.  A block that does not fit goes to the boundary interpreter.
   Both variants open the run (one store): the fast variant's observer
   is a no-op, so its fault flush reports nothing. *)
let enter ctx b start len pkg =
  if ctx.fuel_left < len then ctx.boundary ctx start
  else begin
    ctx.fuel_left <- ctx.fuel_left - len;
    ctx.pkg <- ctx.pkg + pkg;
    ctx.run_start <- start;
    ctx.bodies.!(b) ctx
  end
[@@inline]

(* A compiled variant: its block bodies (indexed by block id; a body
   runs the block's instructions and its terminator, with fuel already
   charged), its boundary interpreter, and [dispatch], where a run
   starts at the state's pc. *)
type variant = {
  bodies : (ctx -> unit) array;
  interp : ctx -> int -> unit;
  dispatch : ctx -> int -> unit;
}

type t = {
  decode : Decode.t;
  n_blocks : int;
  block_idx : int array;  (* pc -> block id at leaders, -1 mid-block *)
  block_start : int array;
  block_len : int array;
  block_pkg : int array;  (* the block's pcs at or above [orig_limit] *)
  max_len : int;
  (* Built on first use: a run pays only for the variant it executes. *)
  mutable fast : variant option;
  mutable observed : variant option;
}

type result = {
  instructions : int;
  package_instructions : int;
  cond_branches : int;
  halted : bool;
}

let is_terminator tg =
  tg = Decode.tag_br || tg = Decode.tag_jmp || tg = Decode.tag_call
  || tg = Decode.tag_ret || tg = Decode.tag_halt
  || tg = Decode.tag_br_unresolved
  || tg = Decode.tag_jmp_unresolved
  || tg = Decode.tag_call_unresolved

(* Leaders: the image entry, every static control-flow target, every
   address materialised by [La] (insurance for computed returns), and
   the instruction after every terminator.  Every pc then belongs to
   exactly one block [leader .. next leader); a terminator can only
   sit at a block's last slot because its successor is a leader. *)
let partition (d : Decode.t) =
  let tag = d.Decode.tag and target = d.Decode.target in
  let n = Array.length tag in
  let leader = Array.make n false in
  if n > 0 then leader.(0) <- true;
  let entry = d.Decode.image.Image.entry in
  if entry >= 0 && entry < n then leader.(entry) <- true;
  for pc = 0 to n - 1 do
    let tg = tag.(pc) in
    if
      tg = Decode.tag_br || tg = Decode.tag_jmp || tg = Decode.tag_call
      || tg = Decode.tag_la
    then begin
      let t = target.(pc) in
      if t >= 0 && t < n then leader.(t) <- true
    end;
    if is_terminator tg && pc + 1 < n then leader.(pc + 1) <- true
  done;
  let nb = ref 0 in
  for pc = 0 to n - 1 do
    if leader.(pc) then incr nb
  done;
  let nb = !nb in
  let block_idx = Array.make n (-1) in
  let block_start = Array.make nb 0 in
  let block_len = Array.make nb 0 in
  let b = ref (-1) in
  for pc = 0 to n - 1 do
    if leader.(pc) then begin
      incr b;
      block_idx.(pc) <- !b;
      block_start.(!b) <- pc
    end;
    block_len.(!b) <- block_len.(!b) + 1
  done;
  (block_idx, block_start, block_len, nb)

let make_variant t ~observed =
  let d = t.decode in
  let block_idx = t.block_idx in
  let block_len = t.block_len in
  let block_pkg = t.block_pkg in
  let tag = d.Decode.tag in
  let dst = d.Decode.dst in
  let src1 = d.Decode.src1 in
  let src2 = d.Decode.src2 in
  let imm = d.Decode.imm in
  let alu_op = d.Decode.alu_op in
  let cond = d.Decode.cond in
  let target = d.Decode.target in
  let code = d.Decode.code in
  let n = Array.length tag in
  let orig_limit = d.Decode.image.Image.orig_limit in
  (* Compiled code reads and writes the register file directly (see
     [ctx.regs]); register operands are baked in as slot numbers. *)
  let reg_of regs pc = (regs.(pc) : Reg.t :> int) in
  let ra_slot = (Reg.ra :> int) in
  (* Cold paths publish the faulting pc, then raise the reference
     interpreter's exact error: the fault flush in {!exec} reads the pc
     to know where the retired prefix ends.  [unres]: an
     unresolved-label instruction actually executed, its message
     rebuilt lazily. *)
  let unres (ctx : ctx) pc =
    State.set_pc ctx.st pc;
    match Instr.target code.(pc) with
    | Some (Instr.Label l) ->
      Vp_util.Error.failf ~stage:"emulator" ~label:l "unresolved label %s" l
    | _ -> assert false
  in
  let bodies = Array.make t.n_blocks (fun (_ : ctx) -> assert false) in
  (* A transfer to a dynamic pc: a run's start, a [Ret] target, the
     boundary interpreter's successor.  A leader enters its block; any
     other pc goes to the boundary interpreter (a computed return into
     mid-block, an out-of-range pc).  All calls are tail calls. *)
  let rec dispatch ctx pc =
    let b = if pc >= 0 && pc < n then block_idx.!(pc) else -1 in
    if b >= 0 then enter ctx b pc block_len.!(b) block_pkg.!(b)
    else interp ctx pc
  (* The boundary interpreter: entered at non-leader pcs and whenever
     a block no longer fits in the remaining fuel.  It retires one
     instruction with the reference interpreter's exact semantics,
     reports it as a run of length 1 (the observers are no-ops in the
     fast variant), and dispatches its successor, which re-enters
     compiled code as soon as a leader with sufficient fuel comes up.
     In the observed variant no run is open while it runs ([run_start]
     is -1), so a fault here flushes nothing. *)
  and interp (ctx : ctx) pc =
    if not ctx.halted then begin
      if ctx.fuel_left <= 0 then State.set_pc ctx.st pc
      else if pc < 0 || pc >= n then
        Vp_util.Error.failf ~stage:"emulator" ~pc "pc 0x%x outside image" pc
      else step ctx pc
    end
  and step ctx pc =
    let st = ctx.st in
    ctx.fuel_left <- ctx.fuel_left - 1;
    if pc >= orig_limit then ctx.pkg <- ctx.pkg + 1;
    State.set_pc st pc;
    let taken = ref false in
    let next = ref (pc + 1) in
    (match tag.!(pc) with
    | 0 (* Alu, register operand *) ->
      State.set_reg st dst.!(pc)
        (Op.eval_alu alu_op.!(pc) (State.reg st src1.!(pc))
           (State.reg st src2.!(pc)))
    | 1 (* Alu, immediate operand *) ->
      State.set_reg st dst.!(pc)
        (Op.eval_alu alu_op.!(pc) (State.reg st src1.!(pc)) imm.!(pc))
    | 2 (* Li *) -> State.set_reg st dst.!(pc) imm.!(pc)
    | 3 (* La *) -> State.set_reg st dst.!(pc) target.!(pc)
    | 4 (* Load *) ->
      let addr = State.reg st src1.!(pc) + imm.!(pc) in
      ctx.addrs.!(0) <- addr;
      State.set_reg st dst.!(pc) (State.mem st addr)
    | 5 (* Store *) ->
      let addr = State.reg st src1.!(pc) + imm.!(pc) in
      ctx.addrs.!(0) <- addr;
      let v = State.reg st dst.!(pc) in
      State.set_mem st addr v;
      sync ctx;
      if not (Reg.equal dst.!(pc) Reg.ra) then State.bump_store_digest st addr v
    | 6 (* Br *) ->
      ctx.branches <- ctx.branches + 1;
      let t =
        Op.eval_cond cond.!(pc) (State.reg st src1.!(pc))
          (State.reg st src2.!(pc))
      in
      taken := t;
      if t then next := target.!(pc)
    | 7 (* Jmp *) ->
      taken := true;
      next := target.!(pc)
    | 8 (* Call *) ->
      taken := true;
      State.set_reg st Reg.ra (pc + 1);
      next := target.!(pc)
    | 9 (* Ret *) ->
      taken := true;
      let ra = State.reg st Reg.ra in
      if ra = State.halt_address then begin
        ctx.halted <- true;
        next := State.halt_address
      end
      else next := ra
    | 10 (* Nop *) -> ()
    | 11 (* Halt *) ->
      ctx.halted <- true;
      next := State.halt_address
    | 13 (* Br, unresolved label: fault only when taken *) ->
      ctx.branches <- ctx.branches + 1;
      let t =
        Op.eval_cond cond.!(pc) (State.reg st src1.!(pc))
          (State.reg st src2.!(pc))
      in
      taken := t;
      if t then unres ctx pc
    | _ (* La/Jmp/Call with an unresolved label *) -> unres ctx pc);
    ctx.on_run ~addrs:ctx.addrs ~start:pc ~len:1 ~taken:!taken ~next_pc:!next;
    if not ctx.halted then dispatch ctx !next
  in
  (* A static transfer target's entry operands, resolved at compile
     time: block, length, package count.  In-range targets are leaders
     by construction (branch/jump/call targets and fall-through
     successors are all marked).  A target outside the image gets
     length [max_int], which no remaining fuel fits (a static transfer
     follows at least one retirement, so [fuel_left < max_int]): the
     entry hands it to the boundary interpreter, whose bounds fault
     only fires while fuel remains — otherwise the run ends with the
     bad pc as [final_pc], exactly as in the reference interpreter. *)
  let entry_of tgt =
    let b = if tgt >= 0 && tgt < n then block_idx.(tgt) else -1 in
    if b >= 0 then (b, block_len.(b), block_pkg.(b)) else (0, max_int, 0)
  in
  (* The observed variant's report at a block's end: close the run and
     hand it to the observer. *)
  let report ctx start len ~taken ~next_pc =
    ctx.run_start <- -1;
    ctx.on_run ~addrs:ctx.addrs ~start ~len ~taken ~next_pc
  [@@inline]
  in
  (* The end of a block without a terminator: fall through into the
     next block. *)
  let fall_through start len =
    let np = start + len in
    let b, l, p = entry_of np in
    if observed then
      fun ctx ->
        report ctx start len ~taken:false ~next_pc:np;
        enter ctx b np l p
    else fun ctx -> enter ctx b np l p
  in
  (* One straight-line (non-terminator) instruction, specialized per
     tag and — for ALU ops — per operation, with operands and folded
     immediates in the closure environment.  Loads and stores index
     the state's memory regions in place ([load], [store]); an
     out-of-range address takes the fault path, which publishes the pc
     so the [State.Fault] carries the same pc context as the reference
     interpreter's.  In the observed variant they also record their
     address at their static [slot] of the run's [addrs] buffer. *)
  let compile_straight pc slot k =
    match tag.(pc) with
    | 0 -> (
      let d0 = reg_of dst pc and a = reg_of src1 pc and b = reg_of src2 pc in
      (* r0 swallows writes, and an ALU op cannot fault. *)
      if d0 = 0 then k
      else
        match alu_op.(pc) with
        | Op.Add | Op.Fadd ->
          fun ctx ->
            ctx.regs.!(d0) <- (ctx.regs.!(a) + ctx.regs.!(b));
            k ctx
        | Op.Sub ->
          fun ctx ->
            ctx.regs.!(d0) <- (ctx.regs.!(a) - ctx.regs.!(b));
            k ctx
        | Op.Mul | Op.Fmul ->
          fun ctx ->
            ctx.regs.!(d0) <- (ctx.regs.!(a) * ctx.regs.!(b));
            k ctx
        | Op.Div | Op.Fdiv ->
          fun ctx ->
            let bv = ctx.regs.!(b) in
            ctx.regs.!(d0) <- (if bv = 0 then 0 else ctx.regs.!(a) / bv);
            k ctx
        | Op.Rem ->
          fun ctx ->
            let bv = ctx.regs.!(b) in
            ctx.regs.!(d0) <- (if bv = 0 then 0 else ctx.regs.!(a) mod bv);
            k ctx
        | Op.And ->
          fun ctx ->
            ctx.regs.!(d0) <- (ctx.regs.!(a) land ctx.regs.!(b));
            k ctx
        | Op.Or ->
          fun ctx ->
            ctx.regs.!(d0) <- (ctx.regs.!(a) lor ctx.regs.!(b));
            k ctx
        | Op.Xor ->
          fun ctx ->
            ctx.regs.!(d0) <- (ctx.regs.!(a) lxor ctx.regs.!(b));
            k ctx
        | Op.Shl ->
          fun ctx ->
            ctx.regs.!(d0) <- (ctx.regs.!(a) lsl (ctx.regs.!(b) land 63));
            k ctx
        | Op.Shr ->
          fun ctx ->
            ctx.regs.!(d0) <- (ctx.regs.!(a) asr (ctx.regs.!(b) land 63));
            k ctx
        | Op.Slt ->
          fun ctx ->
            ctx.regs.!(d0) <- (if ctx.regs.!(a) < ctx.regs.!(b) then 1 else 0);
            k ctx)
    | 1 -> (
      let d0 = reg_of dst pc and a = reg_of src1 pc and i = imm.(pc) in
      if d0 = 0 then k
      else
        match alu_op.(pc) with
        | Op.Add | Op.Fadd ->
          fun ctx ->
            ctx.regs.!(d0) <- (ctx.regs.!(a) + i);
            k ctx
        | Op.Sub ->
          fun ctx ->
            ctx.regs.!(d0) <- (ctx.regs.!(a) - i);
            k ctx
        | Op.Mul | Op.Fmul ->
          fun ctx ->
            ctx.regs.!(d0) <- (ctx.regs.!(a) * i);
            k ctx
        | Op.Div | Op.Fdiv ->
          if i = 0 then
            fun ctx ->
              ctx.regs.!(d0) <- 0;
              k ctx
          else
            fun ctx ->
              ctx.regs.!(d0) <- (ctx.regs.!(a) / i);
              k ctx
        | Op.Rem ->
          if i = 0 then
            fun ctx ->
              ctx.regs.!(d0) <- 0;
              k ctx
          else
            fun ctx ->
              ctx.regs.!(d0) <- (ctx.regs.!(a) mod i);
              k ctx
        | Op.And ->
          fun ctx ->
            ctx.regs.!(d0) <- (ctx.regs.!(a) land i);
            k ctx
        | Op.Or ->
          fun ctx ->
            ctx.regs.!(d0) <- (ctx.regs.!(a) lor i);
            k ctx
        | Op.Xor ->
          fun ctx ->
            ctx.regs.!(d0) <- (ctx.regs.!(a) lxor i);
            k ctx
        | Op.Shl ->
          let s = i land 63 in
          fun ctx ->
            ctx.regs.!(d0) <- (ctx.regs.!(a) lsl s);
            k ctx
        | Op.Shr ->
          let s = i land 63 in
          fun ctx ->
            ctx.regs.!(d0) <- (ctx.regs.!(a) asr s);
            k ctx
        | Op.Slt ->
          fun ctx ->
            ctx.regs.!(d0) <- (if ctx.regs.!(a) < i then 1 else 0);
            k ctx)
    | 2 ->
      let d0 = reg_of dst pc and i = imm.(pc) in
      if d0 = 0 then k
      else
        fun ctx ->
          ctx.regs.!(d0) <- i;
          k ctx
    | 3 ->
      let d0 = reg_of dst pc and v = target.(pc) in
      if d0 = 0 then k
      else
        fun ctx ->
          ctx.regs.!(d0) <- v;
          k ctx
    | 4 ->
      let d0 = reg_of dst pc and b = reg_of src1 pc and off = imm.(pc) in
      if observed then
        fun ctx ->
          let addr = ctx.regs.!(b) + off in
          ctx.addrs.!(slot) <- addr;
          load ctx pc addr d0 k
      else fun ctx -> load ctx pc (ctx.regs.!(b) + off) d0 k
    | 5 ->
      let s0 = reg_of dst pc and b = reg_of src1 pc and off = imm.(pc) in
      (* ra spills hold code addresses; keep them out of the digest so
         original and rewritten binaries stay comparable. *)
      let track = s0 <> ra_slot in
      if observed then
        fun ctx ->
          let addr = ctx.regs.!(b) + off in
          ctx.addrs.!(slot) <- addr;
          store ctx pc addr ctx.regs.!(s0) ~track k
      else if track then
        fun ctx ->
          store ctx pc (ctx.regs.!(b) + off) ctx.regs.!(s0) ~track:true k
      else
        fun ctx ->
          store ctx pc (ctx.regs.!(b) + off) ctx.regs.!(s0) ~track:false k
    | 10 -> k (* Nop compiles to nothing *)
    | 12 -> fun ctx -> unres ctx pc
    | _ -> assert false (* terminators are compiled by compile_term *)
  in
  (* A block's terminator: control transfer baked at compile time, each
     static successor entered through the inlined {!enter}.  In the
     observed variant it reports the block's run [start, start + len)
     before transferring; a taken unresolved branch faults before
     reporting. *)
  let compile_term start len pc =
    match tag.(pc) with
    | 6 ->
      let a = reg_of src1 pc and b = reg_of src2 pc in
      let tpc = target.(pc) and np = pc + 1 in
      let tb, tl, tp = entry_of tpc and fb, fl, fp = entry_of np in
      let go ctx t =
        if t then enter ctx tb tpc tl tp else enter ctx fb np fl fp
      [@@inline]
      in
      if observed then begin
        let br ctx t =
          report ctx start len ~taken:t ~next_pc:(if t then tpc else np);
          go ctx t
        [@@inline]
        in
        match cond.(pc) with
        | Op.Eq ->
          fun ctx ->
            ctx.branches <- ctx.branches + 1;
            br ctx (ctx.regs.!(a) = ctx.regs.!(b))
        | Op.Ne ->
          fun ctx ->
            ctx.branches <- ctx.branches + 1;
            br ctx (ctx.regs.!(a) <> ctx.regs.!(b))
        | Op.Lt ->
          fun ctx ->
            ctx.branches <- ctx.branches + 1;
            br ctx (ctx.regs.!(a) < ctx.regs.!(b))
        | Op.Le ->
          fun ctx ->
            ctx.branches <- ctx.branches + 1;
            br ctx (ctx.regs.!(a) <= ctx.regs.!(b))
        | Op.Gt ->
          fun ctx ->
            ctx.branches <- ctx.branches + 1;
            br ctx (ctx.regs.!(a) > ctx.regs.!(b))
        | Op.Ge ->
          fun ctx ->
            ctx.branches <- ctx.branches + 1;
            br ctx (ctx.regs.!(a) >= ctx.regs.!(b))
      end
      else begin
        match cond.(pc) with
        | Op.Eq ->
          fun ctx ->
            ctx.branches <- ctx.branches + 1;
            go ctx (ctx.regs.!(a) = ctx.regs.!(b))
        | Op.Ne ->
          fun ctx ->
            ctx.branches <- ctx.branches + 1;
            go ctx (ctx.regs.!(a) <> ctx.regs.!(b))
        | Op.Lt ->
          fun ctx ->
            ctx.branches <- ctx.branches + 1;
            go ctx (ctx.regs.!(a) < ctx.regs.!(b))
        | Op.Le ->
          fun ctx ->
            ctx.branches <- ctx.branches + 1;
            go ctx (ctx.regs.!(a) <= ctx.regs.!(b))
        | Op.Gt ->
          fun ctx ->
            ctx.branches <- ctx.branches + 1;
            go ctx (ctx.regs.!(a) > ctx.regs.!(b))
        | Op.Ge ->
          fun ctx ->
            ctx.branches <- ctx.branches + 1;
            go ctx (ctx.regs.!(a) >= ctx.regs.!(b))
      end
    | 7 ->
      let tpc = target.(pc) in
      let b, l, p = entry_of tpc in
      if observed then
        fun ctx ->
          report ctx start len ~taken:true ~next_pc:tpc;
          enter ctx b tpc l p
      else fun ctx -> enter ctx b tpc l p
    | 8 ->
      let tpc = target.(pc) and link = pc + 1 in
      let b, l, p = entry_of tpc in
      if observed then
        fun ctx ->
          ctx.regs.!(ra_slot) <- link;
          report ctx start len ~taken:true ~next_pc:tpc;
          enter ctx b tpc l p
      else
        fun ctx ->
          ctx.regs.!(ra_slot) <- link;
          enter ctx b tpc l p
    | 9 ->
      (* The return target is dynamic: [dispatch] looks its block up
         (call successors are leaders by construction). *)
      if observed then
        fun ctx ->
          let ra = ctx.regs.!(ra_slot) in
          report ctx start len ~taken:true ~next_pc:ra;
          if ra = State.halt_address then begin
            ctx.halted <- true;
            State.set_pc ctx.st pc
          end
          else dispatch ctx ra
      else
        fun ctx ->
          let ra = ctx.regs.!(ra_slot) in
          if ra = State.halt_address then begin
            ctx.halted <- true;
            State.set_pc ctx.st pc
          end
          else dispatch ctx ra
    | 11 ->
      if observed then
        fun ctx ->
          ctx.halted <- true;
          State.set_pc ctx.st pc;
          report ctx start len ~taken:false ~next_pc:State.halt_address
      else
        fun ctx ->
          ctx.halted <- true;
          State.set_pc ctx.st pc
    | 13 ->
      let a = reg_of src1 pc and b = reg_of src2 pc in
      let test = Op.eval_cond cond.(pc) in
      let np = pc + 1 in
      let fb, fl, fp = entry_of np in
      if observed then
        fun ctx ->
          ctx.branches <- ctx.branches + 1;
          if test ctx.regs.!(a) ctx.regs.!(b) then unres ctx pc;
          report ctx start len ~taken:false ~next_pc:np;
          enter ctx fb np fl fp
      else
        fun ctx ->
          ctx.branches <- ctx.branches + 1;
          if test ctx.regs.!(a) ctx.regs.!(b) then unres ctx pc;
          enter ctx fb np fl fp
    | 14 | 15 -> fun ctx -> unres ctx pc
    | _ -> assert false
  in
  let rec compile_from start len pc =
    let slot = pc - start in
    if slot = len - 1 then begin
      if is_terminator tag.(pc) then compile_term start len pc
      else compile_straight pc slot (fall_through start len)
    end
    else compile_straight pc slot (compile_from start len (pc + 1))
  in
  for b = 0 to t.n_blocks - 1 do
    let start = t.block_start.(b) in
    bodies.(b) <- compile_from start t.block_len.(b) start
  done;
  { bodies; interp; dispatch }

let compile (d : Decode.t) =
  let block_idx, block_start, block_len, nb = partition d in
  let orig_limit = d.Decode.image.Image.orig_limit in
  (* Whole-block package accounting: each block's pcs at or above
     [orig_limit], charged in one bump on entry. *)
  let block_pkg =
    Array.init nb (fun b ->
        let start = block_start.(b) in
        let stop = start + block_len.(b) - 1 in
        if stop >= orig_limit then stop - max start orig_limit + 1 else 0)
  in
  {
    decode = d;
    n_blocks = nb;
    block_idx;
    block_start;
    block_len;
    block_pkg;
    max_len = Array.fold_left max 1 block_len;
    fast = None;
    observed = None;
  }

let variant t ~observed =
  match if observed then t.observed else t.fast with
  | Some v -> v
  | None ->
    let v = make_variant t ~observed in
    if observed then t.observed <- Some v else t.fast <- Some v;
    v

(* Two-entry domain-local memo keyed by physical image identity: the
   pipelines run the same immutable images over and over (an original
   and its rewrite alternate, the timing model reads the decoded form
   after the functional run), and the compiled form — the decoded one
   included — is pure data derived from one. *)
let memo = Vp_util.Identity_memo.create ()

let of_image (image : Image.t) =
  Vp_util.Identity_memo.find_or_add memo image (fun image ->
      compile (Decode.of_image image))

let decode t = t.decode
let block_count t = t.n_blocks
let block_of_pc t pc = t.block_idx.(pc)
let block_bounds t b = (t.block_start.(b), t.block_len.(b))

let noop_run ~addrs:_ ~start:_ ~len:_ ~taken:_ ~next_pc:_ = ()

let exec t st ~fuel ?on_run () =
  let observed = Option.is_some on_run in
  let v = variant t ~observed in
  let ctx =
    {
      st;
      regs = st.State.regs;
      data = st.State.data;
      stack = st.State.stack;
      stack_base = st.State.stack_base;
      mem_words = st.State.mem_words;
      fuel_left = fuel;
      pkg = 0;
      branches = 0;
      halted = false;
      run_start = -1;
      addrs = Array.make (if observed then t.max_len else 1) 0;
      on_run = Option.value on_run ~default:noop_run;
      bodies = v.bodies;
      boundary = v.interp;
    }
  in
  (try v.dispatch ctx (State.pc st)
   with e ->
     (* An exception escaping mid-block (a memory fault, an executed
        unresolved label) leaves the block's retired prefix unreported:
        the faulting instruction published its pc on its fault path, so
        the prefix is [run_start, pc).  A try per block would break the tail calls;
        this one handler covers the whole run. *)
     let bt = Printexc.get_raw_backtrace () in
     let start = ctx.run_start in
     if start >= 0 then begin
       ctx.run_start <- -1;
       let len = State.pc st - start in
       if len > 0 then
         ctx.on_run ~addrs:ctx.addrs ~start ~len ~taken:false
           ~next_pc:(start + len)
     end;
     Printexc.raise_with_backtrace e bt);
  {
    instructions = fuel - ctx.fuel_left;
    package_instructions = ctx.pkg;
    cond_branches = ctx.branches;
    halted = ctx.halted;
  }
