(** Exit-block sinking — the redundancy-elimination optimization the
    paper suggests in Section 5.4: "moves cold instructions (those
    whose results are not consumed within the hot package) to the side
    exit block".

    A pure computation (ALU / load-immediate / load-address) whose
    result is live only along exit paths is removed from the hot block
    and re-materialised at the top of each exit block that needs it —
    the exit blocks' dummy-consumer sets (the live registers across the
    exited arc) drive the analysis.  Fully dead computations are
    deleted outright.

    Safety conditions, all checked per instruction: the value is dead
    on every internal path out of the defining block; none of the
    instruction's sources is redefined between it and the block end (so
    the exit block sees the same operand values); the instruction has
    no memory or control side effect. *)

type stats = {
  sunk : int;  (** instructions moved to exit blocks *)
  deleted : int;  (** fully dead instructions removed *)
}

val run : Vp_package.Pkg.t -> Vp_package.Pkg.t * stats

val sink : Pkg_flow.t -> stats
(** {!run} in place on an indexed package. *)

val live_in : Vp_package.Pkg.t -> (string, int) Hashtbl.t
(** Package-level live-in register mask per block label (bit [r] set
    when register [r] is live, as [Vp_isa.Reg.bit]).  Exit blocks seed
    their out-set with the recorded live registers across the exited
    arc; returns use the calling convention's registers; halts use the
    result register. *)
