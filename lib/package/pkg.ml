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

let copy_label t context addr =
  List.find_opt
    (fun b -> (not b.is_exit) && b.context = context && b.orig_addr = addr)
    t.blocks
  |> Option.map (fun b -> b.label)

let branch_count t = List.length t.sites

(* Terminator footprint in emitted instructions.  [Fall] may still
   cost a jump after linearisation; we count the worst case so code-
   expansion numbers are conservative. *)
let term_size = function
  | Fall _ | Goto _ | Branch _ | Return | Exit_jump _ | Stop -> 1
  | Call_orig _ -> 1
  | Inlined_call _ -> 2

let block_size b = List.length b.body + term_size b.term

let size t = List.fold_left (fun acc b -> acc + block_size b) 0 t.blocks

let map_blocks f t = { t with blocks = List.map f t.blocks }

let validate t =
  let err fmt = Printf.ksprintf (fun s -> Error s) fmt in
  let labels = Hashtbl.create 64 in
  let rec check_dups = function
    | [] -> Ok ()
    | b :: rest ->
      if Hashtbl.mem labels b.label then err "duplicate label %s" b.label
      else begin
        Hashtbl.replace labels b.label b;
        check_dups rest
      end
  in
  let resolves ~cross_ok l =
    if Hashtbl.mem labels l then Ok ()
    else if cross_ok then Ok ()
    else err "dangling target %s" l
  in
  let ( let* ) = Result.bind in
  let* () = check_dups t.blocks in
  let rec check_blocks = function
    | [] -> Ok ()
    | b :: rest ->
      let* () =
        if List.exists Instr.is_control b.body then
          err "control instruction inside body of %s" b.label
        else Ok ()
      in
      let targets =
        match b.term with
        | Fall l | Goto l -> [ l ]
        | Branch { taken; fall; _ } -> [ taken; fall ]
        | Call_orig { next; _ } -> [ next ]
        | Inlined_call { prologue; _ } -> [ prologue ]
        | Return | Exit_jump _ | Stop -> []
      in
      let rec check_targets = function
        | [] -> check_blocks rest
        | l :: more ->
          (* Linked exit blocks may point into another package. *)
          let* () = resolves ~cross_ok:b.is_exit l in
          check_targets more
      in
      check_targets targets
  in
  let* () = check_blocks t.blocks in
  let rec check_entries = function
    | [] -> Ok ()
    | (l, _) :: rest ->
      let* () = resolves ~cross_ok:false l in
      check_entries rest
  in
  let* () = check_entries t.entries in
  let rec check_sites = function
    | [] -> Ok ()
    | s :: rest ->
      let* () = resolves ~cross_ok:false s.block_label in
      let* () =
        match s.cold_exit with
        | Some l -> resolves ~cross_ok:false l
        | None -> Ok ()
      in
      check_sites rest
  in
  check_sites t.sites

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
