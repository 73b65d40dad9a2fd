module Instr = Vp_isa.Instr
module Reg = Vp_isa.Reg
module Pkg = Vp_package.Pkg

let succ_labels = function
  | Pkg.Fall l | Pkg.Goto l -> [ l ]
  | Pkg.Branch { taken; fall; _ } -> [ taken; fall ]
  | Pkg.Call_orig { next; _ } -> [ next ]
  | Pkg.Inlined_call { prologue; _ } -> [ prologue ]
  | Pkg.Return | Pkg.Exit_jump _ | Pkg.Stop -> []

let call = Instr.Call { target = Instr.Addr 0 }

let term_uses = function
  | Pkg.Branch { src1; src2; _ } -> Reg.bit src1 lor Reg.bit src2
  | Pkg.Call_orig _ -> Instr.use_mask call
  | Pkg.Inlined_call _ ->
    (* Transfers into the inlined prologue: argument registers and the
       stack pointer flow in, like a call. *)
    Instr.use_mask call
  | Pkg.Return -> Instr.use_mask Instr.Ret
  | Pkg.Exit_jump _ -> 0
  | Pkg.Stop -> Reg.bit Reg.ret_value
  | Pkg.Fall _ | Pkg.Goto _ -> 0

let term_defs = function
  | Pkg.Call_orig _ -> Instr.def_mask call
  | Pkg.Inlined_call _ -> Reg.bit Reg.ra
  | Pkg.Branch _ | Pkg.Return | Pkg.Exit_jump _ | Pkg.Stop | Pkg.Fall _
  | Pkg.Goto _ ->
    0

let index blocks =
  let index = Hashtbl.create (max 16 (Array.length blocks)) in
  Array.iteri (fun i (b : Pkg.block) -> Hashtbl.replace index b.Pkg.label i) blocks;
  index

let pure = function
  | Instr.Alu _ | Instr.Li _ | Instr.La _ -> true
  | Instr.Load _ | Instr.Store _ | Instr.Br _ | Instr.Jmp _ | Instr.Call _
  | Instr.Ret | Instr.Nop | Instr.Halt ->
    false
