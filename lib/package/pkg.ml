module Instr = Vp_isa.Instr

type context = int list

type term =
  | Fall of string
  | Goto of string
  | Branch of {
      cond : Vp_isa.Op.cond;
      src1 : Vp_isa.Reg.t;
      src2 : Vp_isa.Reg.t;
      taken : string;
      fall : string;
    }
  | Call_orig of { callee : int; next : string }
  | Inlined_call of { ra_value : int; prologue : string }
  | Return
  | Exit_jump of int
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
  block_label : string;
  bias : bias;
  cold_exit : string option;
  cold_target : int option;
}

type t = {
  id : string;
  region_id : int;
  root : string;
  blocks : block list;
  entries : (string * int) list;
  sites : site list;
}

let find_block t label = List.find_opt (fun b -> b.label = label) t.blocks

(* The labels of one package share its id as a prefix and differ near
   the end, so hashing their length and last eight bytes is as good as
   hashing all of them, and cheaper. *)
module Labels = Hashtbl.Make (struct
  type t = string

  let equal = String.equal

  let hash s =
    let n = String.length s in
    let h = ref n in
    for k = if n > 8 then n - 8 else 0 to n - 1 do
      h := (!h * 31) + Char.code (String.unsafe_get s k)
    done;
    let h = !h * 0x5bd1e995 in
    (h lxor (h lsr 29)) land max_int
end)

let position index label =
  match Labels.find index label with i -> i | exception Not_found -> -1

let branch_count t = List.length t.sites

(* Terminator footprint in emitted instructions.  [Fall] may still
   cost a jump after linearisation; we count the worst case so code-
   expansion numbers are conservative. *)
let term_size = function Inlined_call _ -> 2 | _ -> 1

let block_size b = List.length b.body + term_size b.term

let size t = List.fold_left (fun acc b -> acc + block_size b) 0 t.blocks

let map_blocks f t = { t with blocks = List.map f t.blocks }

exception Invalid of string

let validate t =
  let fail fmt = Printf.ksprintf (fun s -> raise (Invalid s)) fmt in
  let labels = Labels.create 64 in
  let resolves l = if not (Labels.mem labels l) then fail "dangling target %s" l in
  try
    List.iter
      (fun b ->
        if Labels.mem labels b.label then fail "duplicate label %s" b.label;
        Labels.replace labels b.label ())
      t.blocks;
    List.iter
      (fun b ->
        if List.exists Instr.is_control b.body then
          fail "control instruction inside body of %s" b.label;
        (* Linked exit blocks may point into another package. *)
        if not b.is_exit then
          match b.term with
          | Fall l | Goto l | Call_orig { next = l; _ } | Inlined_call { prologue = l; _ } ->
            resolves l
          | Branch { taken; fall; _ } ->
            resolves taken;
            resolves fall
          | Return | Exit_jump _ | Stop -> ())
      t.blocks;
    List.iter (fun (l, _) -> resolves l) t.entries;
    List.iter
      (fun s ->
        resolves s.block_label;
        Option.iter resolves s.cold_exit)
      t.sites;
    Ok ()
  with Invalid e -> Error e

let pp_term fmt = function
  | Fall l -> Format.fprintf fmt "fall %s" l
  | Goto l -> Format.fprintf fmt "goto %s" l
  | Branch { taken; fall; _ } -> Format.fprintf fmt "branch %s / %s" taken fall
  | Call_orig { callee; next } -> Format.fprintf fmt "call 0x%x then %s" callee next
  | Inlined_call { prologue; ra_value } ->
    Format.fprintf fmt "inlined-call %s (ra 0x%x)" prologue ra_value
  | Return -> Format.pp_print_string fmt "return"
  | Exit_jump a -> Format.fprintf fmt "exit 0x%x" a
  | Stop -> Format.pp_print_string fmt "stop"

let pp fmt t =
  Format.fprintf fmt "@[<v>package %s (root %s, region %d)@," t.id t.root t.region_id;
  List.iter
    (fun b ->
      Format.fprintf fmt "  %s%s @@%x: %d instrs, %a@," b.label
        (if b.is_exit then " [exit]" else "")
        b.orig_addr (List.length b.body) pp_term b.term)
    t.blocks;
  Format.fprintf fmt "@]"
