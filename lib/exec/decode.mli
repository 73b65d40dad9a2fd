(** Predecoded image: the flat lowering that [Compile] executes.

    {!of_image} lowers an image's [Instr.t array] into parallel int
    arrays once, at load time, so block compilation touches nothing but
    unboxed array cells.  Operands ([Reg.t] is an immediate int), ALU
    opcodes and branch conditions (constant constructors) all live in
    flat arrays.  It holds only what execution reads: the timing model
    derives its own per-pc facts (FU class, latency, operand registers
    from [Instr.use_mask]/[Instr.def_mask]) once per image and cpu
    config, so a decode that never reaches the timing model pays for
    none of them.

    Unresolved [Label] targets are NOT a decode-time error: the
    emulator only faults on them when the instruction actually
    executes (and, for a conditional branch, only when taken), and
    decode preserves exactly that behaviour via the [*_unresolved]
    tags, whose execution re-reads the boxed instruction to build the
    same error message lazily. *)

type t = {
  image : Vp_prog.Image.t;  (** the image this was decoded from *)
  code : Vp_isa.Instr.t array;  (** [image.code] — error messages, events *)
  tag : int array;  (** one of the [tag_*] constants below *)
  dst : Vp_isa.Reg.t array;  (** destination; the stored register for [Store] *)
  src1 : Vp_isa.Reg.t array;  (** first source; base register for [Load]/[Store] *)
  src2 : Vp_isa.Reg.t array;  (** register second operand ([tag_alu_reg], [tag_br]) *)
  imm : int array;  (** immediate operand, or [Load]/[Store] offset *)
  alu_op : Vp_isa.Op.alu array;
  cond : Vp_isa.Op.cond array;
  target : int array;  (** resolved control/[La] target address; -1 otherwise *)
}

(** {2 Instruction tags}

    Grouped so that resolved control flow is contiguous
    ([tag_br .. tag_halt]) and every unresolved-label variant sits
    above [tag_halt]. *)

val tag_la : int

val tag_load : int

val tag_store : int

val tag_br : int

val tag_jmp : int

val tag_call : int

val tag_ret : int

val tag_halt : int

val tag_br_unresolved : int

val tag_jmp_unresolved : int

val tag_call_unresolved : int

val of_image : Vp_prog.Image.t -> t
(** Lower the image.  O(size); performs all list/variant traversal up
    front so execution never does.  Not memoized: [Compile.of_image]
    is the one caller and memoizes the result, so read a shared
    decoded form back with [Compile.decode (Compile.of_image image)]. *)

val size : t -> int
