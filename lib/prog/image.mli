(** The linked binary image: a flat, address-indexed code array plus a
    symbol table.  This is what the post-link pipeline operates on —
    CFGs are recovered from here, packages are appended here, and the
    emulator fetches from here.

    Addresses are instruction indices (one instruction per address
    unit) starting at 0.  [orig_limit] records where the original
    program ends; everything at or above it was appended by the
    packager, which is how coverage accounting distinguishes package
    execution from original-code execution. *)

type sym = { name : string; start : int; len : int }

type t = {
  code : Vp_isa.Instr.t array;
  syms : sym list;  (** ascending by [start], non-overlapping *)
  entry : int;  (** address where execution starts *)
  orig_limit : int;  (** first address past the original program *)
  data_init : (int * int) list;  (** initial (address, value) memory contents *)
  data_break : int;  (** first data address unused by globals *)
}

val size : t -> int

val fetch : t -> int -> Vp_isa.Instr.t
(** Raises [Invalid_argument] outside [0, size). *)

val sym_at : t -> int -> sym option
(** The symbol whose range contains the address. *)

val find_sym : t -> string -> sym option

val functions : t -> sym list
(** All symbols, ascending. *)

val append : t -> name:string -> Vp_isa.Instr.t array -> t * int
(** Append a code section as a new symbol; returns the image and the
    section's start address.  The code must contain only resolved
    ([Addr]) targets. *)

val patch : t -> (int * Vp_isa.Instr.t) list -> t
(** Replace the instructions at the given addresses. *)

val validate : t -> (unit, string) result
(** Check structural soundness: all control targets resolved and in
    range, symbols non-overlapping and covering their code, entry in
    range. *)

val target_error : t -> int -> string option
(** The {!validate} complaint about the control target of the
    instruction at an address, if any: an unresolved label or an
    out-of-range address. *)

type sym_table
(** Symbols sorted by start, for repeated lookups. *)

val sym_table : t -> sym_table

val sym_in : sym_table -> int -> sym option
(** {!sym_at} by binary search; allocates nothing. *)

val static_instruction_count : t -> int
(** Instructions excluding [Nop] padding — the denominator of the
    paper's code-expansion numbers. *)

val pp_listing : Format.formatter -> t -> unit
(** Disassembly-style listing with symbol headers. *)
