(** The package intermediate representation.

    A package is a connected piece of code extracted from one region
    (Section 3.3): copies of hot blocks of the root function with hot
    callees partially inlined, explicit exit blocks on every path that
    leaves the hot code, and entry blocks reachable from original-code
    launch points.

    The package is a graph over block positions.  Blocks live in an
    array and keep their position for the package's life; terminators,
    sites and entries name blocks by position, and a linked cold exit
    names its destination as (package, position).  [order] is the
    emission order of the live blocks: a block another absorbed is in
    no order.  Labels are kept only to render ({!pp}, the verifier's
    violation text); nothing resolves them.

    Each block remembers its {e inline context} — the list of original
    call-site addresses from the root down to the copy — because
    package linking may only connect branch sites with identical
    contexts (Section 3.3.4). *)

type context = int list
(** Original call-site addresses, root-first; [[]] for root-level
    blocks. *)

type term =
  | Fall of int  (** fall through to the block at this position *)
  | Goto of int
  | Branch of {
      cond : Vp_isa.Op.cond;
      src1 : Vp_isa.Reg.t;
      src2 : Vp_isa.Reg.t;
      taken : int;
      fall : int;
    }
  | Call_orig of { callee : int; next : int }
      (** call original code at address [callee], continue at [next] *)
  | Inlined_call of { ra_value : int; prologue : int }
      (** materialise the original continuation address into [ra] and
          jump to the inlined callee's prologue copy *)
  | Return
  | Exit_jump of int  (** leave the package to an original address *)
  | Link of { pkg : int; block : int; label : string }
      (** a linked cold exit: continue at position [block] of the
          package at position [pkg] of its group's ordering; [label] is
          that block's, to render *)
  | Stop  (** halt *)

type block = {
  label : string;  (** to render only *)
  orig_addr : int;  (** original start address; -1 for synthetic blocks *)
  context : context;
  body : Vp_isa.Instr.t list;  (** straight-line, no control instructions *)
  term : term;
  weight : int;  (** region weight estimate (for layout) *)
  taken_prob : float option;  (** for [Branch] terminators *)
  live_out : int;
      (** exit blocks: registers live along the exited arc, as a
          [Vp_isa.Reg.bit] mask — the paper's dummy consumers,
          constraining the optimizer; 0 elsewhere *)
  is_exit : bool;
}

type bias = T | F | U | Neither
(** Branch-site bias within this package: [T]aken direction internal
    and fall-through cold, [F] the reverse, [U] both internal,
    [Neither] both cold. *)

type site = {
  orig_pc : int;  (** original address of the conditional branch *)
  site_context : context;
  block : int;  (** position of the block ending in the branch *)
  bias : bias;
  cold_exit : int option;  (** position of the cold direction's exit block *)
  cold_target : int option;  (** original address the cold direction reaches *)
}

type t = {
  id : string;
  region_id : int;  (** unique hot-spot / phase id *)
  root : string;  (** root function name *)
  blocks : block array;  (** by position *)
  order : int array;
      (** emission order of the live blocks; as built, the copy order.
          Every pass that visits blocks one by one does so in this
          order. *)
  entries : (int * int) list;  (** entry position, original address *)
  sites : site list;
}

val first : term -> int
(** A terminator's first successor position: a branch's taken target,
    the one target of other in-package transfers; -1 for none. *)

val second : term -> int
(** A branch's fall-through position; -1 for other terminators. *)

val name : t -> int -> string
(** A block's label, or ["#<position>"] for a position that names no
    block; to render. *)

val live : t -> bool array
(** Per position: whether the block is in the order. *)

val branch_count : t -> int
(** Conditional branch sites — the denominator of the linking rank. *)

val size : t -> int
(** Static instructions of the live blocks, terminators included (exit
    blocks count 1). *)

val validate : t -> (unit, string) result
(** Structural soundness: the order names each block at most once;
    every successor of a live block, entry, site block and cold exit is
    a live position of this package; only exit blocks leave the package
    ([Exit_jump], [Link]); bodies are straight-line. *)

val pp : Format.formatter -> t -> unit
(** The live blocks in order, with labels. *)
