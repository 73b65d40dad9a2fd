module Instr = Vp_isa.Instr
module Reg = Vp_isa.Reg
module Pkg = Vp_package.Pkg

let call = Instr.Call { target = Instr.Addr 0 }

let term_uses = function
  | Pkg.Branch { src1; src2; _ } -> Reg.bit src1 lor Reg.bit src2
  | Pkg.Call_orig _ -> Instr.use_mask call
  | Pkg.Inlined_call _ ->
    (* Transfers into the inlined prologue: argument registers and the
       stack pointer flow in, like a call. *)
    Instr.use_mask call
  | Pkg.Return -> Instr.use_mask Instr.Ret
  | Pkg.Exit_jump _ | Pkg.Link _ -> 0
  | Pkg.Stop -> Reg.bit Reg.ret_value
  | Pkg.Fall _ | Pkg.Goto _ -> 0

let term_defs = function
  | Pkg.Call_orig _ -> Instr.def_mask call
  | Pkg.Inlined_call _ -> Reg.bit Reg.ra
  | Pkg.Branch _ | Pkg.Return | Pkg.Exit_jump _ | Pkg.Link _ | Pkg.Stop | Pkg.Fall _
  | Pkg.Goto _ ->
    0

let pure = function
  | Instr.Alu _ | Instr.Li _ | Instr.La _ -> true
  | Instr.Load _ | Instr.Store _ | Instr.Br _ | Instr.Jmp _ | Instr.Call _
  | Instr.Ret | Instr.Nop | Instr.Halt ->
    false

(* Backward liveness over the live blocks.  Each block is summarised
   once as a (gen, kill) mask pair — registers read before any write in
   the block, registers the block writes — for the shared fixpoint
   [Vp_cfg.Liveness.solve].  Exit blocks' terminal contribution is their
   recorded dummy-consumer set: it survives linking retargeting their
   terminator to another package. *)
let live_in (p : Pkg.t) =
  let n = Array.length p.Pkg.blocks in
  let gen = Array.make n 0 and kill = Array.make n 0 and terminal = Array.make n 0 in
  (* [Instr.use_mask] and [Instr.def_mask] of body instructions, read
     off their operands in one match: this walk visits every
     instruction of the package. *)
  let bit (r : Reg.t) = 1 lsl (r :> int) in
  let rec scan i g k = function
    | [] ->
      let term = p.Pkg.blocks.(i).Pkg.term in
      gen.(i) <- g lor (term_uses term land lnot k);
      kill.(i) <- k lor term_defs term
    | ins :: rest -> (
      match ins with
      | Instr.Alu { dst; src1; src2 = Instr.Reg s2; _ } ->
        scan i (g lor ((bit src1 lor bit s2) land lnot k)) (k lor bit dst) rest
      | Instr.Alu { dst; src1; src2 = Instr.Imm _; _ } ->
        scan i (g lor (bit src1 land lnot k)) (k lor bit dst) rest
      | Instr.Li { dst; _ } | Instr.La { dst; _ } -> scan i g (k lor bit dst) rest
      | Instr.Load { dst; base; _ } -> scan i (g lor (bit base land lnot k)) (k lor bit dst) rest
      | Instr.Store { src; base; _ } -> scan i (g lor ((bit src lor bit base) land lnot k)) k rest
      | Instr.Nop -> scan i g k rest
      | Instr.Br _ | Instr.Jmp _ | Instr.Call _ | Instr.Ret | Instr.Halt ->
        scan i (g lor (Instr.use_mask ins land lnot k)) (k lor Instr.def_mask ins) rest)
  in
  let succs = Array.make n [] in
  Array.iter
    (fun i ->
      let b = p.Pkg.blocks.(i) in
      scan i 0 0 b.Pkg.body;
      terminal.(i) <- (if b.Pkg.is_exit then b.Pkg.live_out else term_uses b.Pkg.term);
      succs.(i) <-
        (match (Pkg.first b.Pkg.term, Pkg.second b.Pkg.term) with
        | -1, -1 -> []
        | j, -1 | -1, j -> [ j ]
        | j, k -> [ j; k ]))
    p.Pkg.order;
  Vp_cfg.Liveness.solve ~gen ~kill ~terminal ~succs
