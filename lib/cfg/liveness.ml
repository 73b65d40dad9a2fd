module Instr = Vp_isa.Instr
module Reg = Vp_isa.Reg

(* Register sets as int bitmasks; 32 registers fit one word. *)
type t = { live_in : int array }

let mask_of regs = List.fold_left (fun m r -> m lor (1 lsl Reg.to_int r)) 0 regs

let regs_of mask =
  List.filter (fun r -> mask land (1 lsl Reg.to_int r) <> 0)
    (List.init Reg.count Reg.of_int)

(* Transfer over one block, backwards: live_in = gen U (live_out - kill). *)
let block_transfer instrs live_out =
  List.fold_left
    (fun live i ->
      let def = mask_of (Instr.defs i) in
      let use = mask_of (Instr.uses i) in
      (live land lnot def) lor use)
    live_out (List.rev instrs)

let compute cfg =
  let n = Cfg.num_blocks cfg in
  let live_in = Array.make n 0 in
  let live_out = Array.make n 0 in
  let bodies = Array.init n (Cfg.instrs cfg) in
  (* Seed: blocks without successors keep their terminator's uses
     visible (the transfer function includes them via gen, so no extra
     seeding needed beyond an empty out-set). *)
  let changed = ref true in
  while !changed do
    changed := false;
    for b = n - 1 downto 0 do
      let out =
        List.fold_left
          (fun acc (a : Cfg.arc) -> acc lor live_in.(a.dst))
          0 (Cfg.succs cfg b)
      in
      let inn = block_transfer bodies.(b) out in
      if out <> live_out.(b) || inn <> live_in.(b) then begin
        live_out.(b) <- out;
        live_in.(b) <- inn;
        changed := true
      end
    done
  done;
  { live_in }

let live_in t b = regs_of t.live_in.(b)
let live_across t (a : Cfg.arc) = regs_of t.live_in.(a.dst)
