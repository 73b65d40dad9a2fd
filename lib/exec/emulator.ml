module Instr = Vp_isa.Instr
module Op = Vp_isa.Op
module Reg = Vp_isa.Reg
module Image = Vp_prog.Image

type outcome = {
  instructions : int;
  package_instructions : int;
  cond_branches : int;
  halted : bool;
  checksum : int;
  result : int;
  final_pc : int;
}

let equivalent ~reference o =
  reference.halted && o.halted
  && o.checksum = reference.checksum
  && o.result = reference.result

type backend = Reference | Compiled

let backend_name = function Reference -> "reference" | Compiled -> "compiled"

let backend_of_string = function
  | "reference" -> Some Reference
  | "compiled" -> Some Compiled
  | _ -> None

let all_backends = [ Reference; Compiled ]

let target_addr = function
  | Instr.Addr a -> a
  | Instr.Label l -> Vp_util.Error.failf ~stage:"emulator" ~label:l "unresolved label %s" l

let operand_value st = function
  | Instr.Reg r -> State.reg st r
  | Instr.Imm n -> n

(* The original boxed interpreter, kept verbatim as the executable
   specification: the differential tests re-run every workload through
   it and require bit-identical outcomes from the compiled core.  One
   bounded slice over an external [st]: starts from the state's current
   pc, retires at most [fuel] instructions, and leaves the final pc in
   the state so a later slice (possibly over a different image sharing
   the same address space) resumes exactly where this one stopped.
   Counts in the outcome cover only this slice. *)
let reference_slice st ~fuel ?on_branch ?on_retire ?on_run image =
  let instructions = ref 0 in
  let package_instructions = ref 0 in
  let cond_branches = ref 0 in
  let halted = ref false in
  let orig_limit = image.Image.orig_limit in
  let code = image.Image.code in
  let size = Array.length code in
  let addrs = [| -1 |] in
  while (not !halted) && !instructions < fuel do
    let pc = State.pc st in
    if pc < 0 || pc >= size then
      Vp_util.Error.failf ~stage:"emulator" ~pc "pc 0x%x outside image" pc;
    let instr = code.(pc) in
    incr instructions;
    if pc >= orig_limit then incr package_instructions;
    let taken = ref false in
    let mem_addr = ref (-1) in
    let next = ref (pc + 1) in
    (match instr with
    | Instr.Alu { op; dst; src1; src2 } ->
      State.set_reg st dst (Op.eval_alu op (State.reg st src1) (operand_value st src2))
    | Instr.Li { dst; imm } -> State.set_reg st dst imm
    | Instr.La { dst; target } -> State.set_reg st dst (target_addr target)
    | Instr.Load { dst; base; offset } ->
      let addr = State.reg st base + offset in
      mem_addr := addr;
      State.set_reg st dst (State.mem st addr)
    | Instr.Store { src; base; offset } ->
      let addr = State.reg st base + offset in
      mem_addr := addr;
      let v = State.reg st src in
      State.set_mem st addr v;
      (* ra spills hold code addresses; keep them out of the digest so
         original and rewritten binaries stay comparable. *)
      if not (Reg.equal src Reg.ra) then State.bump_store_digest st addr v
    | Instr.Br { cond; src1; src2; target } ->
      incr cond_branches;
      let t = Op.eval_cond cond (State.reg st src1) (State.reg st src2) in
      taken := t;
      if t then next := target_addr target;
      (match on_branch with Some f -> f ~pc ~taken:t | None -> ())
    | Instr.Jmp { target } ->
      taken := true;
      next := target_addr target
    | Instr.Call { target } ->
      taken := true;
      State.set_reg st Reg.ra (pc + 1);
      next := target_addr target
    | Instr.Ret ->
      taken := true;
      let ra = State.reg st Reg.ra in
      if ra = State.halt_address then begin
        halted := true;
        next := State.halt_address
      end
      else next := ra
    | Instr.Nop -> ()
    | Instr.Halt ->
      halted := true;
      next := State.halt_address);
    (match on_retire with
    | Some f -> f ~pc ~taken:!taken ~next_pc:!next ~mem_addr:!mem_addr
    | None -> ());
    (match on_run with
    | Some f ->
      addrs.(0) <- !mem_addr;
      f ~addrs ~start:pc ~len:1 ~taken:!taken ~next_pc:!next
    | None -> ());
    if not !halted then State.set_pc st !next
  done;
  {
    instructions = !instructions;
    package_instructions = !package_instructions;
    cond_branches = !cond_branches;
    halted = !halted;
    checksum = State.checksum st;
    result = State.reg st Reg.ret_value;
    final_pc = State.pc st;
  }

(* Unchecked array access in the run expansion: every pc a run covers
   is inside the image, and its [addrs] slot is below the run length. *)
external ( .!() ) : 'a array -> int -> 'a = "%array_unsafe_get"

let noop_branch ~pc:_ ~taken:_ = ()

(* The reference interpreter's per-branch and per-instruction streams,
   derived from the compiled backend's retirement runs in its exact
   order: every instruction of a run retires in turn, and a run whose
   last instruction is a conditional branch fires [on_branch] just
   before that branch retires.  Without [on_retire] a run costs one tag
   test.  A caller's own [on_run] sees each run first. *)
let observe_runs (d : Decode.t) ?on_branch ?on_retire ?on_run () =
  if Option.is_none on_branch && Option.is_none on_retire then on_run
  else begin
    let tag = d.Decode.tag in
    let on_branch = Option.value on_branch ~default:noop_branch in
    let mem_addr ~addrs ~start pc =
      let t = tag.!(pc) in
      if t = Decode.tag_load || t = Decode.tag_store then addrs.!(pc - start)
      else -1
    in
    Some
      (fun ~addrs ~start ~len ~taken ~next_pc ->
        (match on_run with
        | Some f -> f ~addrs ~start ~len ~taken ~next_pc
        | None -> ());
        let last = start + len - 1 in
        (match on_retire with
        | Some f ->
          for pc = start to last - 1 do
            f ~pc ~taken:false ~next_pc:(pc + 1)
              ~mem_addr:(mem_addr ~addrs ~start pc)
          done
        | None -> ());
        let t = tag.!(last) in
        if t = Decode.tag_br || t = Decode.tag_br_unresolved then
          on_branch ~pc:last ~taken;
        match on_retire with
        | Some f ->
          f ~pc:last ~taken ~next_pc ~mem_addr:(mem_addr ~addrs ~start last)
        | None -> ())
  end

let compiled_slice st ~fuel ?on_branch ?on_retire ?on_run (c : Compile.t) =
  let on_run =
    observe_runs (Compile.decode c) ?on_branch ?on_retire ?on_run ()
  in
  let r = Compile.exec c st ~fuel ?on_run () in
  {
    instructions = r.Compile.instructions;
    package_instructions = r.Compile.package_instructions;
    cond_branches = r.Compile.cond_branches;
    halted = r.Compile.halted;
    checksum = State.checksum st;
    result = State.reg st Reg.ret_value;
    final_pc = State.pc st;
  }

let slice backend st ~fuel ?on_branch ?on_retire ?on_run image =
  match backend with
  | Compiled ->
    compiled_slice st ~fuel ?on_branch ?on_retire ?on_run
      (Compile.of_image image)
  | Reference -> reference_slice st ~fuel ?on_branch ?on_retire ?on_run image

let run_slice ?(backend = Compiled) ~state ~fuel ?on_branch ?on_run image =
  slice backend state ~fuel ?on_branch ?on_run image

let run_backend ?(backend = Compiled) ?(fuel = 200_000_000)
    ?(mem_words = 1 lsl 20) ?on_branch ?on_retire ?on_run image =
  let st = State.create ~mem_words image in
  let outcome = slice backend st ~fuel ?on_branch ?on_retire ?on_run image in
  (* The state never escapes this function; recycle its memory. *)
  State.release st;
  outcome
