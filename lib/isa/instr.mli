(** Instructions of the simulated EPIC-flavoured ISA.

    One instruction occupies one address unit.  Before layout, control
    transfers name {!target} labels; layout resolves every label to an
    absolute address, and the binary image only ever contains resolved
    instructions.

    Control semantics:
    - [Br] compares two registers and jumps to the target when the
      condition holds, otherwise falls through.
    - [Call] writes the return address (pc + 1) into [Reg.ra] and
      jumps; there is no hardware stack, so functions that make calls
      spill [ra] in their prologue.
    - [Ret] jumps to the address held in [Reg.ra].
    - [Halt] stops the machine (used only by the top-level driver).

    Register effects are {!use_mask} and {!def_mask}: int masks, the
    one register-set form from here to the verifier and the timing
    model.  Nothing allocates a register list per instruction. *)

type target = Label of string | Addr of int

type operand = Reg of Reg.t | Imm of int

type t =
  | Alu of { op : Op.alu; dst : Reg.t; src1 : Reg.t; src2 : operand }
  | Li of { dst : Reg.t; imm : int }  (** load immediate *)
  | La of { dst : Reg.t; target : target }  (** load code address *)
  | Load of { dst : Reg.t; base : Reg.t; offset : int }
  | Store of { src : Reg.t; base : Reg.t; offset : int }
  | Br of { cond : Op.cond; src1 : Reg.t; src2 : Reg.t; target : target }
  | Jmp of { target : target }
  | Call of { target : target }
  | Ret
  | Nop
  | Halt

(** {1 Classification} *)

val is_control : t -> bool
(** Any instruction that can redirect the pc. *)

val is_load : t -> bool
val is_store : t -> bool

(** {1 Targets} *)

val target : t -> target option
(** The label/address a control instruction may transfer to.  [Ret]
    has none (indirect through [ra]). *)

val with_target : t -> target -> t
(** Replace the target of a control instruction; raises
    [Invalid_argument] on instructions without one. *)

val resolve : (string -> int) -> t -> t
(** Resolve [Label] targets to [Addr] using the given symbol lookup. *)

val retarget : (int -> int) -> t -> t
(** Rewrite resolved [Addr] targets through an address map; leaves
    labels untouched. *)

(** {1 Dataflow} *)

val def_mask : t -> int
(** Registers written, as a {!Reg.bit} mask.  [Call] defines [ra] and
    the argument registers (the callee may overwrite them); a write to
    [Reg.zero] is discarded by the machine but still reported here. *)

val use_mask : t -> int
(** Registers read, as a {!Reg.bit} mask.  [Call] uses [sp] and all
    argument registers (conservative interprocedural summary); [Ret]
    uses [ra], [sp] and the return-value register. *)

(** {1 Machine mapping} *)

val fu : t -> Op.fu
val latency : t -> int
(** Base result latency, before cache effects. *)

(** {1 Printing} *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
