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

val sink : Vp_package.Pkg.t -> Vp_package.Pkg.t * stats
(** The package with its exit-only computations sunk and its dead ones
    deleted; the input is left as it was. *)
