(** Shared package-graph helpers for the optimizer passes: register
    effects of package terminators, and liveness over a package's
    blocks.  Register sets are [Vp_isa.Reg.bit] masks, as everywhere. *)

val term_uses : Vp_package.Pkg.term -> int
(** Registers a terminator reads, including the interprocedural
    summaries of calls and returns and the halt's result register. *)

val term_defs : Vp_package.Pkg.term -> int

val pure : Vp_isa.Instr.t -> bool
(** Pure register computations (ALU, load-immediate, load-address): no
    memory or control side effect, so they may move or be deleted. *)

val live_in : Vp_package.Pkg.t -> int array
(** Package-level live-in register mask of every live block, by
    position (0 for a block in no order).  Exit blocks seed their
    out-set with the recorded live registers across the exited arc;
    returns use the calling convention's registers; halts use the
    result register. *)
