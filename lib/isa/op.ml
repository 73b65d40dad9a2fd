type alu =
  | Add
  | Sub
  | Mul
  | Div
  | Rem
  | And
  | Or
  | Xor
  | Shl
  | Shr
  | Slt
  | Fadd
  | Fmul
  | Fdiv

type cond = Eq | Ne | Lt | Le | Gt | Ge

type fu = Ialu | Fp | Long_fp | Mem | Control

let alu_fu = function
  | Add | Sub | And | Or | Xor | Shl | Shr | Slt -> Ialu
  | Mul | Fadd | Fmul -> Fp
  | Div | Rem | Fdiv -> Long_fp

let alu_latency = function
  | Add | Sub | And | Or | Xor | Shl | Shr | Slt -> 1
  | Mul -> 3
  | Fadd -> 3
  | Fmul -> 4
  | Div | Rem -> 8
  | Fdiv -> 12

(* Shift amounts are masked to six bits so that adversarial property
   tests cannot trigger undefined OCaml shift behaviour. *)
let eval_alu op a b =
  match op with
  | Add | Fadd -> a + b
  | Sub -> a - b
  | Mul | Fmul -> a * b
  | Div | Fdiv -> if b = 0 then 0 else a / b
  | Rem -> if b = 0 then 0 else a mod b
  | And -> a land b
  | Or -> a lor b
  | Xor -> a lxor b
  | Shl -> a lsl (b land 63)
  | Shr -> a asr (b land 63)
  | Slt -> if a < b then 1 else 0

let eval_cond c a b =
  match c with
  | Eq -> a = b
  | Ne -> a <> b
  | Lt -> a < b
  | Le -> a <= b
  | Gt -> a > b
  | Ge -> a >= b

let negate_cond = function
  | Eq -> Ne
  | Ne -> Eq
  | Lt -> Ge
  | Le -> Gt
  | Gt -> Le
  | Ge -> Lt

let alu_name = function
  | Add -> "add"
  | Sub -> "sub"
  | Mul -> "mul"
  | Div -> "div"
  | Rem -> "rem"
  | And -> "and"
  | Or -> "or"
  | Xor -> "xor"
  | Shl -> "shl"
  | Shr -> "shr"
  | Slt -> "slt"
  | Fadd -> "fadd"
  | Fmul -> "fmul"
  | Fdiv -> "fdiv"

let cond_name = function
  | Eq -> "eq"
  | Ne -> "ne"
  | Lt -> "lt"
  | Le -> "le"
  | Gt -> "gt"
  | Ge -> "ge"

let all_alu = [ Add; Sub; Mul; Div; Rem; And; Or; Xor; Shl; Shr; Slt; Fadd; Fmul; Fdiv ]
let all_cond = [ Eq; Ne; Lt; Le; Gt; Ge ]

let pp_alu fmt op = Format.pp_print_string fmt (alu_name op)
let pp_cond fmt c = Format.pp_print_string fmt (cond_name c)
