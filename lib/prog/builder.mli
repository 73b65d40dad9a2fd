(** Structured construction of programs in the simulated ISA.

    Workloads are written against this DSL: virtual registers,
    arithmetic, memory, structured control flow (if / while / for /
    break / continue and raw labels for irregular shapes), calls and
    returns.  The builder performs eager register allocation — each
    virtual register is pinned to a dedicated callee-saved temporary,
    overflowing into stack slots accessed through reserved scratch
    registers — and synthesises the calling convention:

    - arguments arrive in [Reg.arg 0..4] and are copied into fresh
      virtual registers at entry;
    - every function gets a {e prologue} block (allocate frame, save
      [ra] and every temporary it touches) and a single {e epilogue}
      block (restore, deallocate, [ret]);
    - call sites marshal arguments into the argument registers and
      read the result from [Reg.ret_value].

    The uniform prologue/epilogue matters beyond correctness: the
    paper's partial inliner keys on a callee having a prologue and an
    epilogue with a hot path between them. *)

type t
(** Program-level builder. *)

type fb
(** Function-level builder, valid only inside its {!func} callback. *)

type vreg
(** A virtual register, bound to one function. *)

type operand = V of vreg | K of int
(** Right-hand operands: a virtual register or an immediate. *)

type cond_spec = Vp_isa.Op.cond * vreg * operand
(** [(c, a, b)] reads as "a c b", e.g. [(Lt, i, K 10)]. *)

(** {1 Program level} *)

val create : unit -> t

val global : t -> words:int -> int
(** Allocate zero-initialised global data; returns its word address. *)

val global_init : t -> int list -> int
(** Allocate and initialise global data; returns its word address. *)

val func : t -> string -> nargs:int -> (fb -> vreg array -> unit) -> unit
(** Define a function.  The callback receives virtual registers
    already holding the arguments.  At most 5 arguments.  The body
    must end every path with {!ret} or {!halt}; a missing terminator
    falls into the epilogue (returning garbage), which {!func} permits
    but property tests avoid. *)

val program : t -> entry:string -> Program.t
(** Finish: returns the program.  Raises on an undefined entry. *)

(** {1 Values} *)

val vreg : fb -> vreg
(** Fresh virtual register (initial value unspecified). *)

val li : fb -> vreg -> int -> unit
val mov : fb -> vreg -> vreg -> unit

val alu : fb -> Vp_isa.Op.alu -> vreg -> vreg -> operand -> unit
(** [alu fb op dst a b] emits [dst := a op b]. *)

val addi : fb -> vreg -> vreg -> int -> unit
(** Shorthand for [alu fb Add dst src (K n)]. *)

(** {1 Memory} *)

val load : fb -> vreg -> base:vreg -> off:int -> unit
val store : fb -> vreg -> base:vreg -> off:int -> unit

val load_abs : fb -> vreg -> int -> unit
(** Load from an absolute data address (global). *)

val store_abs : fb -> vreg -> int -> unit

val local : fb -> words:int -> int
(** Allocate frame-local storage; returns its frame offset for use
    with {!local_addr}. *)

val local_addr : fb -> vreg -> int -> unit
(** [local_addr fb dst off] sets [dst] to the absolute address of the
    frame slot [off] (i.e. [sp + off]). *)

(** {1 Control flow} *)

val if_ : fb -> cond_spec -> (unit -> unit) -> (unit -> unit) -> unit
(** [if_ fb cond then_ else_].  The {e then} arm is the fall-through
    direction; the branch jumps to the {e else} arm.  Workloads make a
    branch taken-biased by putting the common path in [else_]. *)

val when_ : fb -> cond_spec -> (unit -> unit) -> unit
(** [if_] with an empty else arm. *)

val while_ : fb -> (unit -> cond_spec) -> (unit -> unit) -> unit
(** Top-tested loop.  The condition thunk is invoked once and must
    emit the condition computation; it runs in the loop-head block. *)

val for_ : fb -> vreg -> from:operand -> below:operand -> ?step:int ->
  (unit -> unit) -> unit
(** Counted loop: [for v = from; v < below; v += step].  A [V] bound
    is re-read each iteration. *)

val break_ : fb -> unit
val continue_ : fb -> unit

val new_label : fb -> string
val place_label : fb -> string -> unit
(** Close the current block and start a block with this label. *)

val goto : fb -> string -> unit
val branch : fb -> cond_spec -> string -> unit
(** Conditional branch to a label; execution falls through otherwise. *)

(** {1 Calls and returns} *)

val call : fb -> string -> vreg list -> vreg
(** Call a function and capture its result in a fresh register. *)

val call_void : fb -> string -> vreg list -> unit

val ret : fb -> vreg option -> unit

val halt : fb -> unit
(** Stop the machine; only meaningful in the entry function. *)
