(** Backward live-register analysis over a recovered CFG.

    The packager uses live-in sets to build exit blocks: when a hot
    block's cold arc is cut, the registers live along that arc (the
    live-in of the cold target) are recorded as dummy consumers so the
    optimizer cannot delete or reorder their producers unsoundly.

    Blocks with no successors (returns, halts) seed their live-out
    with the terminator's own uses; [Ret]'s uses already include the
    return-value register, the stack pointer and [ra]. *)

type t

val compute : Cfg.t -> t

val live_in : t -> int -> Vp_isa.Reg.t list
(** Ascending register order. *)

val live_across : t -> Cfg.arc -> Vp_isa.Reg.t list
(** Registers live along an arc = live-in of the destination. *)
