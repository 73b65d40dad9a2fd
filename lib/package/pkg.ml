module Instr = Vp_isa.Instr

type context = int list

type term =
  | Fall of int
  | Goto of int
  | Branch of {
      cond : Vp_isa.Op.cond;
      src1 : Vp_isa.Reg.t;
      src2 : Vp_isa.Reg.t;
      taken : int;
      fall : int;
    }
  | Call_orig of { callee : int; next : int }
  | Inlined_call of { ra_value : int; prologue : int }
  | Return
  | Exit_jump of int
  | Link of { pkg : int; block : int; label : string }
  | Stop

type block = {
  label : string;
  orig_addr : int;
  context : context;
  body : Instr.t list;
  term : term;
  weight : int;
  taken_prob : float option;
  live_out : int;
  is_exit : bool;
}

type bias = T | F | U | Neither

type site = {
  orig_pc : int;
  site_context : context;
  block : int;
  bias : bias;
  cold_exit : int option;
  cold_target : int option;
}

type t = {
  id : string;
  region_id : int;
  root : string;
  blocks : block array;
  order : int array;
  entries : (int * int) list;
  sites : site list;
}

let first = function
  | Fall j | Goto j | Call_orig { next = j; _ } | Inlined_call { prologue = j; _ }
  | Branch { taken = j; _ } ->
    j
  | Return | Exit_jump _ | Link _ | Stop -> -1

let second = function Branch { fall; _ } -> fall | _ -> -1

let live t =
  let m = Array.make (Array.length t.blocks) false in
  Array.iter (fun i -> m.(i) <- true) t.order;
  m

let branch_count t = List.length t.sites

(* Terminator footprint in emitted instructions.  [Fall] may still
   cost a jump after linearisation; we count the worst case so code-
   expansion numbers are conservative. *)
let term_size = function Inlined_call _ -> 2 | _ -> 1

let size t =
  Array.fold_left
    (fun acc i ->
      let b = t.blocks.(i) in
      acc + List.length b.body + term_size b.term)
    0 t.order

(* A block's label, or its position when it names no block. *)
let name t i =
  if i >= 0 && i < Array.length t.blocks then t.blocks.(i).label else Printf.sprintf "#%d" i

exception Invalid of string

let validate t =
  let fail fmt = Printf.ksprintf (fun s -> raise (Invalid s)) fmt in
  let n = Array.length t.blocks in
  let live = Array.make n false in
  let name = name t in
  let check what i =
    if i < 0 || i >= n then fail "%s %d out of range" what i
    else if not live.(i) then fail "%s %s is not in the order" what (name i)
  in
  let succ b j =
    if j < 0 || j >= n then fail "successor %d of %s out of range" j b.label
    else if not live.(j) then fail "successor %s of %s is not in the order" (name j) b.label
  in
  try
    Array.iter
      (fun i ->
        if i < 0 || i >= n then fail "order names block %d out of range" i;
        if live.(i) then fail "order names %s twice" (name i);
        live.(i) <- true)
      t.order;
    Array.iter
      (fun i ->
        let b = t.blocks.(i) in
        if List.exists Instr.is_control b.body then
          fail "control instruction inside body of %s" b.label;
        match b.term with
        | Fall j | Goto j | Call_orig { next = j; _ } | Inlined_call { prologue = j; _ } -> succ b j
        | Branch { taken; fall; _ } ->
          succ b taken;
          succ b fall
        | (Exit_jump _ | Link _) when not b.is_exit -> fail "%s leaves the package" b.label
        | Return | Exit_jump _ | Link _ | Stop -> ())
      t.order;
    List.iter (fun (i, _) -> check "entry" i) t.entries;
    List.iter
      (fun s ->
        check "site block" s.block;
        Option.iter (check "cold exit") s.cold_exit)
      t.sites;
    Ok ()
  with Invalid e -> Error e

let pp_term t fmt term =
  let name = name t in
  match term with
  | Fall l -> Format.fprintf fmt "fall %s" (name l)
  | Goto l -> Format.fprintf fmt "goto %s" (name l)
  | Link { label; _ } -> Format.fprintf fmt "goto %s" label
  | Branch { taken; fall; _ } -> Format.fprintf fmt "branch %s / %s" (name taken) (name fall)
  | Call_orig { callee; next } -> Format.fprintf fmt "call 0x%x then %s" callee (name next)
  | Inlined_call { prologue; ra_value } ->
    Format.fprintf fmt "inlined-call %s (ra 0x%x)" (name prologue) ra_value
  | Return -> Format.pp_print_string fmt "return"
  | Exit_jump a -> Format.fprintf fmt "exit 0x%x" a
  | Stop -> Format.pp_print_string fmt "stop"

let pp fmt t =
  Format.fprintf fmt "@[<v>package %s (root %s, region %d)@," t.id t.root t.region_id;
  Array.iter
    (fun i ->
      let b = t.blocks.(i) in
      Format.fprintf fmt "  %s%s @@%x: %d instrs, %a@," b.label
        (if b.is_exit then " [exit]" else "")
        b.orig_addr (List.length b.body) (pp_term t) b.term)
    t.order;
  Format.fprintf fmt "@]"
