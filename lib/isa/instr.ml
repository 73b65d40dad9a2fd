type target = Label of string | Addr of int

type operand = Reg of Reg.t | Imm of int

type t =
  | Alu of { op : Op.alu; dst : Reg.t; src1 : Reg.t; src2 : operand }
  | Li of { dst : Reg.t; imm : int }
  | La of { dst : Reg.t; target : target }
  | Load of { dst : Reg.t; base : Reg.t; offset : int }
  | Store of { src : Reg.t; base : Reg.t; offset : int }
  | Br of { cond : Op.cond; src1 : Reg.t; src2 : Reg.t; target : target }
  | Jmp of { target : target }
  | Call of { target : target }
  | Ret
  | Nop
  | Halt

let is_control = function
  | Br _ | Jmp _ | Call _ | Ret | Halt -> true
  | Alu _ | Li _ | La _ | Load _ | Store _ | Nop -> false

let is_load = function Load _ -> true | _ -> false
let is_store = function Store _ -> true | _ -> false

let target = function
  | Br { target; _ } | Jmp { target } | Call { target } | La { target; _ } ->
    Some target
  | Alu _ | Li _ | Load _ | Store _ | Ret | Nop | Halt -> None

let with_target i t =
  match i with
  | Br b -> Br { b with target = t }
  | Jmp _ -> Jmp { target = t }
  | Call _ -> Call { target = t }
  | La l -> La { l with target = t }
  | Alu _ | Li _ | Load _ | Store _ | Ret | Nop | Halt ->
    invalid_arg "Instr.with_target: instruction has no target"

let map_target f i =
  match target i with
  | None -> i
  | Some t -> (
    match f t with
    | None -> i
    | Some t' -> with_target i t')

let resolve lookup i =
  let f = function
    | Label name -> Some (Addr (lookup name))
    | Addr _ -> None
  in
  map_target f i

let retarget remap i =
  let f = function
    | Addr a -> Some (Addr (remap a))
    | Label _ -> None
  in
  map_target f i

let bit = Reg.bit
let arg_mask = List.fold_left (fun m r -> m lor bit r) 0 (List.init 5 Reg.arg)
let call_def_mask = bit Reg.ra lor arg_mask
let call_use_mask = bit Reg.sp lor arg_mask
let ret_use_mask = bit Reg.ra lor bit Reg.sp lor bit Reg.ret_value

let def_mask = function
  | Alu { dst; _ } | Li { dst; _ } | La { dst; _ } | Load { dst; _ } -> bit dst
  | Call _ -> call_def_mask
  | Store _ | Br _ | Jmp _ | Ret | Nop | Halt -> 0

let use_mask = function
  | Alu { src1; src2 = Reg r; _ } -> bit src1 lor bit r
  | Alu { src1; src2 = Imm _; _ } -> bit src1
  | Li _ | La _ | Jmp _ | Nop | Halt -> 0
  | Load { base; _ } -> bit base
  | Store { src; base; _ } -> bit src lor bit base
  | Br { src1; src2; _ } -> bit src1 lor bit src2
  | Call _ -> call_use_mask
  | Ret -> ret_use_mask

let fu = function
  | Alu { op; _ } -> Op.alu_fu op
  | Li _ | La _ -> Op.Ialu
  | Load _ | Store _ -> Op.Mem
  | Br _ | Jmp _ | Call _ | Ret | Halt -> Op.Control
  | Nop -> Op.Ialu

let latency = function
  | Alu { op; _ } -> Op.alu_latency op
  | Li _ | La _ -> 1
  | Load _ -> 2
  | Store _ -> 1
  | Br _ | Jmp _ | Call _ | Ret | Halt | Nop -> 1

let pp_target fmt = function
  | Label name -> Format.fprintf fmt "%s" name
  | Addr a -> Format.fprintf fmt "0x%x" a

let pp_operand fmt = function
  | Reg r -> Reg.pp fmt r
  | Imm i -> Format.fprintf fmt "#%d" i

let pp fmt = function
  | Alu { op; dst; src1; src2 } ->
    Format.fprintf fmt "%a %a, %a, %a" Op.pp_alu op Reg.pp dst Reg.pp src1
      pp_operand src2
  | Li { dst; imm } -> Format.fprintf fmt "li %a, #%d" Reg.pp dst imm
  | La { dst; target } -> Format.fprintf fmt "la %a, %a" Reg.pp dst pp_target target
  | Load { dst; base; offset } ->
    Format.fprintf fmt "ld %a, %d(%a)" Reg.pp dst offset Reg.pp base
  | Store { src; base; offset } ->
    Format.fprintf fmt "st %a, %d(%a)" Reg.pp src offset Reg.pp base
  | Br { cond; src1; src2; target } ->
    Format.fprintf fmt "b%a %a, %a, %a" Op.pp_cond cond Reg.pp src1 Reg.pp src2
      pp_target target
  | Jmp { target } -> Format.fprintf fmt "jmp %a" pp_target target
  | Call { target } -> Format.fprintf fmt "call %a" pp_target target
  | Ret -> Format.pp_print_string fmt "ret"
  | Nop -> Format.pp_print_string fmt "nop"
  | Halt -> Format.pp_print_string fmt "halt"

let to_string i = Format.asprintf "%a" pp i
