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
  | Pkg.Exit_jump _ -> 0
  | Pkg.Stop -> Reg.bit Reg.ret_value
  | Pkg.Fall _ | Pkg.Goto _ -> 0

let term_defs = function
  | Pkg.Call_orig _ -> Instr.def_mask call
  | Pkg.Inlined_call _ -> Reg.bit Reg.ra
  | Pkg.Branch _ | Pkg.Return | Pkg.Exit_jump _ | Pkg.Stop | Pkg.Fall _
  | Pkg.Goto _ ->
    0

let pure = function
  | Instr.Alu _ | Instr.Li _ | Instr.La _ -> true
  | Instr.Load _ | Instr.Store _ | Instr.Br _ | Instr.Jmp _ | Instr.Call _
  | Instr.Ret | Instr.Nop | Instr.Halt ->
    false

module Labels = Pkg.Labels

type t = {
  pkg : Pkg.t;
  src : Pkg.block array;
  index : int Labels.t;
  body : Instr.t list array;
  term : Pkg.term array;
  taken_prob : float option array;
  weight : int array;
  first : int array;
  second : int array;
  alive : bool array;
  owner : int array;
  mutable order : int array;
}

let size t = Array.length t.src

let find t label = Pkg.position t.index label

let of_pkg (pkg : Pkg.t) =
  let src = Array.of_list pkg.Pkg.blocks in
  let n = Array.length src in
  let index = Labels.create (Int.max 16 n) in
  Array.iteri (fun i (b : Pkg.block) -> Labels.replace index b.Pkg.label i) src;
  let find l = Pkg.position index l in
  let first = Array.make n (-1) and second = Array.make n (-1) in
  Array.iteri
    (fun i (b : Pkg.block) ->
      match b.Pkg.term with
      | Pkg.Fall l | Pkg.Goto l
      | Pkg.Call_orig { next = l; _ }
      | Pkg.Inlined_call { prologue = l; _ } ->
        first.(i) <- find l
      | Pkg.Branch { taken; fall; _ } ->
        first.(i) <- find taken;
        second.(i) <- find fall
      | Pkg.Return | Pkg.Exit_jump _ | Pkg.Stop -> ())
    src;
  {
    pkg;
    src;
    index;
    body = Array.map (fun (b : Pkg.block) -> b.Pkg.body) src;
    term = Array.map (fun (b : Pkg.block) -> b.Pkg.term) src;
    taken_prob = Array.map (fun (b : Pkg.block) -> b.Pkg.taken_prob) src;
    weight = Array.map (fun (b : Pkg.block) -> b.Pkg.weight) src;
    first;
    second;
    alive = Array.make n true;
    owner = Array.init n Fun.id;
    order = Array.init n Fun.id;
  }

let is_exit t i = t.src.(i).Pkg.is_exit
let label t i = t.src.(i).Pkg.label

let rec survivor t i = if t.owner.(i) = i then i else survivor t t.owner.(i)

(* Block [i] as the passes left it; an unchanged block is the input
   record itself. *)
let block t i =
  let b = t.src.(i) in
  if
    b.Pkg.body == t.body.(i)
    && b.Pkg.term == t.term.(i)
    && b.Pkg.taken_prob == t.taken_prob.(i)
    && b.Pkg.weight = t.weight.(i)
  then b
  else
    {
      b with
      Pkg.body = t.body.(i);
      term = t.term.(i);
      taken_prob = t.taken_prob.(i);
      weight = t.weight.(i);
    }

let to_pkg t =
  let blocks =
    Array.fold_right (fun i acc -> if t.alive.(i) then block t i :: acc else acc) t.order []
  in
  (* A site of an absorbed block now lives in its absorber. *)
  let sites =
    if Array.for_all Fun.id t.alive then t.pkg.Pkg.sites
    else
      List.map
        (fun (s : Pkg.site) ->
          let i = find t s.Pkg.block_label in
          if i >= 0 && not t.alive.(i) then { s with Pkg.block_label = label t (survivor t i) }
          else s)
        t.pkg.Pkg.sites
  in
  { t.pkg with Pkg.blocks; sites }

let marks t labels =
  let m = Array.make (size t) false in
  List.iter
    (fun l ->
      let i = find t l in
      if i >= 0 then m.(i) <- true)
    labels;
  m

(* Backward liveness over the live blocks.  Each block is summarised
   once as a (gen, kill) mask pair — registers read before any write in
   the block, registers the block writes — for the shared fixpoint
   [Vp_cfg.Liveness.solve].  Exit blocks' terminal contribution is their
   recorded dummy-consumer set: it survives linking retargeting their
   terminator to another package. *)
let live_in t =
  let n = size t in
  let gen = Array.make n 0 and kill = Array.make n 0 and terminal = Array.make n 0 in
  (* [Instr.use_mask] and [Instr.def_mask] of body instructions, read
     off their operands in one match: this walk visits every
     instruction of the package. *)
  let bit (r : Reg.t) = 1 lsl (r :> int) in
  let rec scan i g k = function
    | [] ->
      let term = t.term.(i) in
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
  for i = 0 to n - 1 do
    if t.alive.(i) then begin
      scan i 0 0 t.body.(i);
      terminal.(i) <- (if is_exit t i then t.src.(i).Pkg.live_out else term_uses t.term.(i))
    end
  done;
  let succs =
    Array.init n (fun i ->
        if not t.alive.(i) then []
        else
          match (t.first.(i), t.second.(i)) with
          | -1, -1 -> []
          | j, -1 | -1, j -> [ j ]
          | j, k -> [ j; k ])
  in
  Vp_cfg.Liveness.solve ~gen ~kill ~terminal ~succs
