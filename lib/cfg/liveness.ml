module Instr = Vp_isa.Instr
module Reg = Vp_isa.Reg

(* Register sets as int bitmasks; 32 registers fit one word. *)
type t = { live_in : int array }

let mask_of regs = List.fold_left (fun m r -> m lor (1 lsl Reg.to_int r)) 0 regs

let all_regs = List.init Reg.count Reg.of_int

let regs_of mask =
  List.filter (fun r -> mask land (1 lsl Reg.to_int r) <> 0) all_regs

let solve ~gen ~kill ~terminal ~succs =
  let n = Array.length gen in
  let live_in = Array.make n 0 in
  let changed = ref true in
  while !changed do
    changed := false;
    for i = n - 1 downto 0 do
      let out =
        List.fold_left (fun acc j -> acc lor live_in.(j)) terminal.(i) succs.(i)
      in
      let inn = gen.(i) lor (out land lnot kill.(i)) in
      if inn <> live_in.(i) then begin
        live_in.(i) <- inn;
        changed := true
      end
    done
  done;
  live_in

(* A block's (gen, kill) pair: registers read before any write in the
   block, and registers it writes.  Each instruction's masks are built
   once, not once per fixpoint round. *)
let summary instrs =
  List.fold_left
    (fun (gen, kill) i ->
      ( gen lor (mask_of (Instr.uses i) land lnot kill),
        kill lor mask_of (Instr.defs i) ))
    (0, 0) instrs

(* Blocks without successors keep their terminator's uses visible
   through gen, so the terminal contribution is empty. *)
let compute cfg =
  let n = Cfg.num_blocks cfg in
  let summaries = Array.init n (fun b -> summary (Cfg.instrs cfg b)) in
  let live_in =
    solve ~gen:(Array.map fst summaries) ~kill:(Array.map snd summaries)
      ~terminal:(Array.make n 0)
      ~succs:
        (Array.init n (fun b ->
             List.map (fun (a : Cfg.arc) -> a.dst) (Cfg.succs cfg b)))
  in
  { live_in }

let live_in t b = regs_of t.live_in.(b)
let live_across t (a : Cfg.arc) = regs_of t.live_in.(a.dst)
