(** Backward live-register analysis over a recovered CFG.

    The packager uses live-in sets to build exit blocks: when a hot
    block's cold arc is cut, the registers live along that arc (the
    live-in of the cold target) are recorded as dummy consumers so the
    optimizer cannot delete or reorder their producers unsoundly.

    Blocks with no successors (returns, halts) seed their live-out
    with the terminator's own uses; [Ret]'s uses already include the
    return-value register, the stack pointer and [ra]. *)

type t

val solve :
  gen:int array ->
  kill:int array ->
  terminal:int array ->
  succs:int list array ->
  int array
(** The backward mask fixpoint every liveness client shares.  Blocks
    are indices [0 .. n-1]; registers are bits of an int mask.  Block
    [i] reads [gen.(i)] before writing, writes [kill.(i)], has
    successor blocks [succs.(i)], and sees [terminal.(i)] live at its
    exit on top of its successors' live-in.  Returns the least
    solution of [live_in.(i) = gen.(i) lor (out land lnot kill.(i))],
    [out] being [terminal.(i)] joined with every successor's
    [live_in]. *)

val compute : Cfg.t -> t

val live_in : t -> int -> int
(** Registers live into a block, as a [Vp_isa.Reg.bit] mask. *)

val live_across : t -> Cfg.arc -> int
(** Registers live along an arc = live-in of the destination. *)
