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
   dispatch directly into the successor block's closure through a
   block-indexed array (threaded code).  Fuel is checked once per
   block; a block that no longer fits in the remaining fuel falls back
   to a per-instruction interpreter at the boundary, so instruction
   accounting stays exact.

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
   state's register file, which compiled code reads and writes without
   a call per access (a cross-module call is an indirect one when
   modules are compiled without cross-module inlining). *)
type ctx = {
  st : State.t;
  regs : int array;
  mutable fuel_left : int;
  mutable pkg : int;
  mutable branches : int;
  mutable halted : bool;
  mutable run_start : int;
  addrs : int array;
  on_run : on_run;
}

type variant = { enter : ctx -> int -> unit (* the boundary interpreter *) }

type t = {
  decode : Decode.t;
  n_blocks : int;
  block_idx : int array;  (* pc -> block id at leaders, -1 mid-block *)
  block_start : int array;
  block_len : int array;
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

let make_variant (d : Decode.t) ~block_idx ~block_start ~block_len ~nb
    ~observed =
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
  (* Cold path: an unresolved-label instruction actually executed;
     rebuild the reference interpreter's exact message lazily.  The pc
     is published first, like a faulting load's, so the fault flush in
     {!exec} knows where the retired prefix ends. *)
  let unres (ctx : ctx) pc =
    State.set_pc ctx.st pc;
    match Instr.target code.(pc) with
    | Some (Instr.Label l) ->
      Vp_util.Error.failf ~stage:"emulator" ~label:l "unresolved label %s" l
    | _ -> assert false
  in
  let blocks = Array.make nb (fun (_ : ctx) -> assert false) in
  (* The boundary interpreter: entered at the run's start, on dynamic
     [Ret] targets, and whenever a block no longer fits in the
     remaining fuel.  It retires one instruction at a time with the
     reference interpreter's exact semantics, reports each as a run of
     length 1 (the observers are no-ops in the fast variant), and
     re-enters compiled blocks as soon as a leader with sufficient
     fuel comes up.  No run is open while it runs ([run_start] is -1),
     so a fault here flushes nothing.  All calls are tail calls. *)
  let rec interp (ctx : ctx) pc =
    if not ctx.halted then begin
      if ctx.fuel_left <= 0 then State.set_pc ctx.st pc
      else if pc < 0 || pc >= n then
        Vp_util.Error.failf ~stage:"emulator" ~pc "pc 0x%x outside image" pc
      else begin
        let b = block_idx.!(pc) in
        if b >= 0 && ctx.fuel_left >= block_len.!(b) then blocks.!(b) ctx
        else step ctx pc
      end
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
    if not ctx.halted then interp ctx !next
  in
  (* Compile-time dispatch to a target address.  In-range targets are
     leaders by construction (branch/jump/call targets and fallthrough
     successors are all marked), so this is a direct jump into the
     target block's closure; its prologue re-checks fuel.  Out-of-range
     targets replicate the reference interpreter exactly: the bounds
     fault only fires while fuel remains, otherwise the run ends with
     the bad pc as [final_pc]. *)
  let goto tgt =
    if tgt >= 0 && tgt < n then begin
      let b = block_idx.(tgt) in
      if b >= 0 then fun ctx -> blocks.!(b) ctx
      else fun ctx -> interp ctx tgt
    end
    else
      fun ctx ->
        if ctx.fuel_left > 0 then
          Vp_util.Error.failf ~stage:"emulator" ~pc:tgt "pc 0x%x outside image"
            tgt
        else State.set_pc ctx.st tgt
  in
  (* A block's end with a static outcome (a fall-through, [Jmp],
     [Call], [Halt], a not-taken unresolved branch): in the observed
     variant it reports the block's run, then continues with [k]; in
     the fast variant it is [k] itself. *)
  let report start len ~taken ~next_pc k =
    if observed then
      fun ctx ->
        ctx.run_start <- -1;
        ctx.on_run ~addrs:ctx.addrs ~start ~len ~taken ~next_pc;
        k ctx
    else k
  in
  (* One straight-line (non-terminator) instruction, specialized per
     tag and — for ALU ops — per operation, with operands and folded
     immediates in the closure environment.  Loads and stores publish
     the pc first so an out-of-range [State.Fault] carries the same pc
     context as the reference interpreter's; in the observed variant
     they also record their address at their static [slot] of the
     run's [addrs] buffer. *)
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
          let st = ctx.st in
          State.set_pc st pc;
          let addr = ctx.regs.!(b) + off in
          ctx.addrs.!(slot) <- addr;
          let v = State.mem st addr in
          if d0 <> 0 then ctx.regs.!(d0) <- v;
          k ctx
      else
        fun ctx ->
          let st = ctx.st in
          State.set_pc st pc;
          let addr = ctx.regs.!(b) + off in
          let v = State.mem st addr in
          if d0 <> 0 then ctx.regs.!(d0) <- v;
          k ctx
    | 5 ->
      let s0 = reg_of dst pc and b = reg_of src1 pc and off = imm.(pc) in
      (* ra spills hold code addresses; keep them out of the digest so
         original and rewritten binaries stay comparable. *)
      let track = s0 <> ra_slot in
      if observed then
        fun ctx ->
          let st = ctx.st in
          State.set_pc st pc;
          let addr = ctx.regs.!(b) + off in
          ctx.addrs.!(slot) <- addr;
          let v = ctx.regs.!(s0) in
          State.set_mem st addr v;
          if track then State.bump_store_digest st addr v;
          k ctx
      else if track then
        fun ctx ->
          let st = ctx.st in
          State.set_pc st pc;
          let addr = ctx.regs.!(b) + off in
          let v = ctx.regs.!(s0) in
          State.set_mem st addr v;
          State.bump_store_digest st addr v;
          k ctx
      else
        fun ctx ->
          let st = ctx.st in
          State.set_pc st pc;
          let addr = ctx.regs.!(b) + off in
          State.set_mem st addr (ctx.regs.!(s0));
          k ctx
    | 10 -> k (* Nop compiles to nothing *)
    | 12 -> fun ctx -> unres ctx pc
    | _ -> assert false (* terminators are compiled by compile_term *)
  in
  (* A block's terminator: control transfer baked at compile time.  In
     the observed variant it reports the block's run [start, start +
     len) before transferring; a taken unresolved branch faults before
     reporting. *)
  let compile_term start len pc =
    match tag.(pc) with
    | 6 ->
      let a = reg_of src1 pc and b = reg_of src2 pc in
      let tpc = target.(pc) and np = pc + 1 in
      let gt = goto tpc and gf = goto np in
      if observed then begin
        let br ctx t =
          ctx.run_start <- -1;
          ctx.on_run ~addrs:ctx.addrs ~start ~len ~taken:t
            ~next_pc:(if t then tpc else np);
          if t then gt ctx else gf ctx
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
            if ctx.regs.!(a) = ctx.regs.!(b) then gt ctx else gf ctx
        | Op.Ne ->
          fun ctx ->
            ctx.branches <- ctx.branches + 1;
            if ctx.regs.!(a) <> ctx.regs.!(b) then gt ctx else gf ctx
        | Op.Lt ->
          fun ctx ->
            ctx.branches <- ctx.branches + 1;
            if ctx.regs.!(a) < ctx.regs.!(b) then gt ctx else gf ctx
        | Op.Le ->
          fun ctx ->
            ctx.branches <- ctx.branches + 1;
            if ctx.regs.!(a) <= ctx.regs.!(b) then gt ctx else gf ctx
        | Op.Gt ->
          fun ctx ->
            ctx.branches <- ctx.branches + 1;
            if ctx.regs.!(a) > ctx.regs.!(b) then gt ctx else gf ctx
        | Op.Ge ->
          fun ctx ->
            ctx.branches <- ctx.branches + 1;
            if ctx.regs.!(a) >= ctx.regs.!(b) then gt ctx else gf ctx
      end
    | 7 ->
      let tpc = target.(pc) in
      report start len ~taken:true ~next_pc:tpc (goto tpc)
    | 8 ->
      let tpc = target.(pc) and link = pc + 1 in
      let k = report start len ~taken:true ~next_pc:tpc (goto tpc) in
      fun ctx ->
        ctx.regs.!(ra_slot) <- link;
        k ctx
    | 9 ->
      (* The return target is dynamic; the interpreter's leader check
         re-enters compiled code immediately (call successors are
         leaders by construction). *)
      if observed then
        fun ctx ->
          let ra = ctx.regs.!(ra_slot) in
          ctx.run_start <- -1;
          ctx.on_run ~addrs:ctx.addrs ~start ~len ~taken:true ~next_pc:ra;
          if ra = State.halt_address then begin
            ctx.halted <- true;
            State.set_pc ctx.st pc
          end
          else interp ctx ra
      else
        fun ctx ->
          let ra = ctx.regs.!(ra_slot) in
          if ra = State.halt_address then begin
            ctx.halted <- true;
            State.set_pc ctx.st pc
          end
          else interp ctx ra
    | 11 ->
      let k = report start len ~taken:false ~next_pc:State.halt_address ignore in
      fun ctx ->
        ctx.halted <- true;
        State.set_pc ctx.st pc;
        k ctx
    | 13 ->
      let a = reg_of src1 pc and b = reg_of src2 pc in
      let test = Op.eval_cond cond.(pc) in
      let np = pc + 1 in
      let k = report start len ~taken:false ~next_pc:np (goto np) in
      fun ctx ->
        ctx.branches <- ctx.branches + 1;
        if test (ctx.regs.!(a)) (ctx.regs.!(b)) then unres ctx pc;
        k ctx
    | 14 | 15 -> fun ctx -> unres ctx pc
    | _ -> assert false
  in
  let rec compile_from start len pc =
    let slot = pc - start in
    if slot = len - 1 then begin
      if is_terminator tag.(pc) then compile_term start len pc
      else
        compile_straight pc slot
          (report start len ~taken:false ~next_pc:(pc + 1) (goto (pc + 1)))
    end
    else compile_straight pc slot (compile_from start len (pc + 1))
  in
  for b = 0 to nb - 1 do
    let start = block_start.(b) in
    let len = block_len.(b) in
    let stop = start + len - 1 in
    (* Whole-block package accounting: the block's pcs at or above
       [orig_limit], added in one bump. *)
    let pkg = if stop >= orig_limit then stop - max start orig_limit + 1 else 0 in
    let body = compile_from start len start in
    blocks.(b) <-
      (if observed then
         fun ctx ->
           if ctx.fuel_left < len then interp ctx start
           else begin
             ctx.fuel_left <- ctx.fuel_left - len;
             ctx.pkg <- ctx.pkg + pkg;
             ctx.run_start <- start;
             body ctx
           end
       else if pkg = 0 then
         fun ctx ->
           if ctx.fuel_left < len then interp ctx start
           else begin
             ctx.fuel_left <- ctx.fuel_left - len;
             body ctx
           end
       else
         fun ctx ->
           if ctx.fuel_left < len then interp ctx start
           else begin
             ctx.fuel_left <- ctx.fuel_left - len;
             ctx.pkg <- ctx.pkg + pkg;
             body ctx
           end)
  done;
  { enter = interp }

let compile (d : Decode.t) =
  let block_idx, block_start, block_len, nb = partition d in
  {
    decode = d;
    n_blocks = nb;
    block_idx;
    block_start;
    block_len;
    max_len = Array.fold_left max 1 block_len;
    fast = None;
    observed = None;
  }

let variant t ~observed =
  match if observed then t.observed else t.fast with
  | Some v -> v
  | None ->
    let v =
      make_variant t.decode ~block_idx:t.block_idx ~block_start:t.block_start
        ~block_len:t.block_len ~nb:t.n_blocks ~observed
    in
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
  let ctx =
    {
      st;
      regs = State.regs st;
      fuel_left = fuel;
      pkg = 0;
      branches = 0;
      halted = false;
      run_start = -1;
      addrs = Array.make (if observed then t.max_len else 1) 0;
      on_run = Option.value on_run ~default:noop_run;
    }
  in
  (try (variant t ~observed).enter ctx (State.pc st)
   with e ->
     (* An exception escaping mid-block (a memory fault, an executed
        unresolved label) leaves the block's retired prefix unreported:
        the faulting instruction published its pc, so the prefix is
        [run_start, pc).  A try per block would break the tail calls;
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
