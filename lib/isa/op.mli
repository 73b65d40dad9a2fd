(** Operation kinds, functional-unit classes and latencies.

    The simulated machine is the EPIC model of the paper's Table 2:
    five functional-unit classes (integer ALU, FP, long-latency FP,
    memory, control).  Every ALU operation carries a class and a
    result latency used by both the list scheduler and the timing
    model. *)

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
  | Slt  (** set if less-than (signed) *)
  | Fadd (** floating-style add: exercises the FP unit class *)
  | Fmul (** floating-style multiply *)
  | Fdiv (** long-latency floating divide *)

type cond = Eq | Ne | Lt | Le | Gt | Ge
(** Comparison for conditional branches, signed. *)

type fu = Ialu | Fp | Long_fp | Mem | Control
(** Functional-unit classes of Table 2. *)

val alu_fu : alu -> fu
val alu_latency : alu -> int
(** Cycles from issue to result availability. *)

val eval_alu : alu -> int -> int -> int
(** Architectural semantics on 63-bit OCaml ints.  Division and
    remainder by zero yield 0 (hardware-style quiet result) so random
    programs never trap. *)

val eval_cond : cond -> int -> int -> bool

val negate_cond : cond -> cond
(** The complementary condition, used when the layout pass flips a
    branch so the likely successor falls through. *)

val alu_name : alu -> string
val cond_name : cond -> string

val all_alu : alu list
val all_cond : cond list

val pp_alu : Format.formatter -> alu -> unit
val pp_cond : Format.formatter -> cond -> unit
