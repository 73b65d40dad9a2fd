(** Architectural registers and the software register convention.

    The machine has 32 integer registers.  [r0] reads as zero and
    ignores writes.  The builder DSL and the partial inliner both rely
    on the convention encoded here:

    - [r0]            hardwired zero
    - [r1] = [sp]     stack pointer
    - [r2] = [ra]     return-address (link) register, written by call
    - [r3]..[r7]      argument registers; [r3] also carries the return value
    - [r8]..[r31]     allocatable temporaries (callee-saved) *)

type t = private int
(** Register number in [0, 31]. *)

val count : int
(** Number of architectural registers (32). *)

val of_int : int -> t
(** Raises [Invalid_argument] outside [0, count). *)

val to_int : t -> int

val zero : t
val sp : t
val ra : t

val arg : int -> t
(** [arg i] is the i-th argument register, [i] in [0, 4]. *)

val ret_value : t
(** The return-value register (same as [arg 0]). *)

val first_temp : int
(** Index of the first allocatable temporary (8). *)

val temps : t list
(** All allocatable temporaries in ascending order. *)

val name : t -> string
(** Conventional name: ["zero"], ["sp"], ["ra"], ["a0"].. ["a4"],
    ["t0"].. ["t23"]. *)

val pp : Format.formatter -> t -> unit

val equal : t -> t -> bool

(** {1 Register sets}

    A set of registers is an int mask: bit [i] is register [i]
    ({!count} registers fit one word).  Every register set in the
    system — an instruction's uses and defs, a block's live-ins, an
    exit's live-out — has this one form. *)

val bit : t -> int
(** [1 lsl r]: the set holding only [r]. *)

val of_mask : int -> t list
(** The registers of a mask in ascending order.  Bits at or above
    {!count} are ignored. *)
