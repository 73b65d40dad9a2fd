module Instr = Vp_isa.Instr

(* Register sets are [Reg.bit] masks; 32 registers fit one word. *)
type t = { live_in : int array }

let solve ~gen ~kill ~terminal ~succs =
  let n = Array.length gen in
  let live_in = Array.make n 0 in
  let rec join acc = function [] -> acc | j :: rest -> join (acc lor live_in.(j)) rest in
  let changed = ref true in
  while !changed do
    changed := false;
    for i = n - 1 downto 0 do
      let out = join terminal.(i) succs.(i) in
      let inn = gen.(i) lor (out land lnot kill.(i)) in
      if inn <> live_in.(i) then begin
        live_in.(i) <- inn;
        changed := true
      end
    done
  done;
  live_in

(* Blocks without successors keep their terminator's uses visible
   through gen, so the terminal contribution is empty.  A block's
   (gen, kill) pair — registers read before any write in the block,
   and registers it writes — is folded over its pcs from each
   instruction's masks. *)
let compute cfg =
  let n = Cfg.num_blocks cfg in
  let image = Cfg.image cfg in
  let gen = Array.make n 0 and kill = Array.make n 0 in
  for b = 0 to n - 1 do
    let start = Cfg.start cfg b in
    let g = ref 0 and k = ref 0 in
    for pc = start to start + Cfg.len cfg b - 1 do
      let i = Vp_prog.Image.fetch image pc in
      g := !g lor (Instr.use_mask i land lnot !k);
      k := !k lor Instr.def_mask i
    done;
    gen.(b) <- !g;
    kill.(b) <- !k
  done;
  let live_in =
    solve ~gen ~kill ~terminal:(Array.make n 0)
      ~succs:
        (Array.init n (fun b ->
             List.map (fun (a : Cfg.arc) -> a.dst) (Cfg.succs cfg b)))
  in
  { live_in }

let live_in t b = t.live_in.(b)
let live_across t (a : Cfg.arc) = t.live_in.(a.dst)
