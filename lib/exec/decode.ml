module Instr = Vp_isa.Instr
module Op = Vp_isa.Op
module Reg = Vp_isa.Reg
module Image = Vp_prog.Image

type t = {
  image : Image.t;
  code : Instr.t array;
  tag : int array;
  dst : Reg.t array;
  src1 : Reg.t array;
  src2 : Reg.t array;
  imm : int array;
  alu_op : Op.alu array;
  cond : Op.cond array;
  target : int array;
}

let tag_alu_reg = 0
let tag_alu_imm = 1
let tag_li = 2
let tag_la = 3
let tag_load = 4
let tag_store = 5
let tag_br = 6
let tag_jmp = 7
let tag_call = 8
let tag_ret = 9
let tag_nop = 10
let tag_halt = 11
let tag_la_unresolved = 12
let tag_br_unresolved = 13
let tag_jmp_unresolved = 14
let tag_call_unresolved = 15

let of_image (image : Image.t) =
  let code = image.Image.code in
  let n = Array.length code in
  let tag = Array.make n tag_nop in
  let dst = Array.make n Reg.zero in
  let src1 = Array.make n Reg.zero in
  let src2 = Array.make n Reg.zero in
  let imm = Array.make n 0 in
  let alu_op = Array.make n Op.Add in
  let cond = Array.make n Op.Eq in
  let target = Array.make n (-1) in
  for pc = 0 to n - 1 do
    match code.(pc) with
    | Instr.Alu { op; dst = d; src1 = s1; src2 = Instr.Reg s2 } ->
      tag.(pc) <- tag_alu_reg;
      alu_op.(pc) <- op;
      dst.(pc) <- d;
      src1.(pc) <- s1;
      src2.(pc) <- s2
    | Instr.Alu { op; dst = d; src1 = s1; src2 = Instr.Imm k } ->
      tag.(pc) <- tag_alu_imm;
      alu_op.(pc) <- op;
      dst.(pc) <- d;
      src1.(pc) <- s1;
      imm.(pc) <- k
    | Instr.Li { dst = d; imm = k } ->
      tag.(pc) <- tag_li;
      dst.(pc) <- d;
      imm.(pc) <- k
    | Instr.La { dst = d; target = Instr.Addr a } ->
      tag.(pc) <- tag_la;
      dst.(pc) <- d;
      target.(pc) <- a
    | Instr.La { dst = d; target = Instr.Label _ } ->
      tag.(pc) <- tag_la_unresolved;
      dst.(pc) <- d
    | Instr.Load { dst = d; base; offset } ->
      tag.(pc) <- tag_load;
      dst.(pc) <- d;
      src1.(pc) <- base;
      imm.(pc) <- offset
    | Instr.Store { src; base; offset } ->
      tag.(pc) <- tag_store;
      dst.(pc) <- src;
      src1.(pc) <- base;
      imm.(pc) <- offset
    | Instr.Br { cond = c; src1 = s1; src2 = s2; target = tgt } -> (
      cond.(pc) <- c;
      src1.(pc) <- s1;
      src2.(pc) <- s2;
      match tgt with
      | Instr.Addr a ->
        tag.(pc) <- tag_br;
        target.(pc) <- a
      | Instr.Label _ -> tag.(pc) <- tag_br_unresolved)
    | Instr.Jmp { target = Instr.Addr a } ->
      tag.(pc) <- tag_jmp;
      target.(pc) <- a
    | Instr.Jmp { target = Instr.Label _ } -> tag.(pc) <- tag_jmp_unresolved
    | Instr.Call { target = Instr.Addr a } ->
      tag.(pc) <- tag_call;
      target.(pc) <- a
    | Instr.Call { target = Instr.Label _ } -> tag.(pc) <- tag_call_unresolved
    | Instr.Ret -> tag.(pc) <- tag_ret
    | Instr.Nop -> tag.(pc) <- tag_nop
    | Instr.Halt -> tag.(pc) <- tag_halt
  done;
  {
    image;
    code;
    tag;
    dst;
    src1;
    src2;
    imm;
    alu_op;
    cond;
    target;
  }

let size t = Array.length t.tag
