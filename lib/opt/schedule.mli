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
    the input that respects all dependences: the order in which cycle
    by cycle list scheduling issues it, taking the ready instruction of
    greatest latency-weighted height first (lowest body index among
    equals).  Dependences are summarised per register and per memory
    kind, and instructions are placed in priority order, so a body costs
    time linear in its length and its critical path, not quadratic in
    its length.  Raises [Invalid_argument] naming the field when
    [issue_width] or a unit class's capacity is below 1 — such a machine
    could never issue what needs it — and on a control transfer, which
    no body holds. *)

val estimate_cycles : ?machine:machine -> Vp_isa.Instr.t list -> int
(** Cycles the machine needs for this body in order (0 for an empty
    body), used to report schedule compaction.  Rejects a machine as
    {!schedule_body} does. *)

type t
(** A scheduler: the machine and, when it shares schedules, one
    schedule per distinct body summary (each instruction's registers,
    memory kind, latency and unit class — all the schedule depends on),
    reused by every later body with that summary.  A sharing scheduler
    serves one rewrite and is dropped with it. *)

val create : ?machine:machine -> share:bool -> unit -> t
(** A scheduler for [machine] (default: the Table 2 machine, as
    {!schedule_body} uses when given none).  Rejects a machine as
    {!schedule_body} does. *)

val schedule_blocks : t -> Vp_package.Pkg.t -> Vp_package.Pkg.t
(** The package with the body of every live block scheduled; the input
    is left as it was. *)
