(** Local list scheduling of package blocks for the Table 2 EPIC
    machine (Section 5.4 "rescheduling").

    Within each block's straight-line body, instructions are reordered
    by latency-weighted critical path under true/anti/output register
    dependences and conservative memory ordering (stores are barriers
    against all memory operations; loads may pass loads).  The
    terminator is not part of the body and always stays last.
    Reordering respects dependences, so architectural semantics are
    unchanged — the equivalence property tests cover this. *)

type machine = {
  issue_width : int;
  ialu : int;
  fp : int;  (** shared by FP and long-latency FP operations *)
  mem : int;
  branch : int;
}

val schedule_body :
  ?machine:machine -> Vp_isa.Instr.t list -> Vp_isa.Instr.t list
(** Reorder one straight-line body.  The result is a permutation of
    the input that respects all dependences. *)

val estimate_cycles : ?machine:machine -> Vp_isa.Instr.t list -> int
(** Cycles the machine needs for this body in order (0 for an empty
    body), used to report schedule compaction. *)

val run : ?machine:machine -> Vp_package.Pkg.t -> Vp_package.Pkg.t
(** Schedule every block body of a package. *)
