(** Shared package-graph helpers for the optimizer passes: register
    effects of package terminators, and the indexed form every pass of
    one {!Opt.transform} call reads and edits.  Register sets are
    [Vp_isa.Reg.bit] masks, as everywhere. *)

val term_uses : Vp_package.Pkg.term -> int
(** Registers a terminator reads, including the interprocedural
    summaries of calls and returns and the halt's result register. *)

val term_defs : Vp_package.Pkg.term -> int

val pure : Vp_isa.Instr.t -> bool
(** Pure register computations (ALU, load-immediate, load-address): no
    memory or control side effect, so they may move or be deleted. *)

(** {1 Indexed form}

    A package indexed once: blocks by position, labels resolved to
    positions, successors as int arrays.  Passes edit the per-block
    arrays in place; {!to_pkg} builds the resulting package. *)

module Labels : Hashtbl.S with type key = string

type t = {
  pkg : Vp_package.Pkg.t;  (** the input: id, entries and sites *)
  src : Vp_package.Pkg.block array;
      (** input blocks: label, address, context, live-out and exit flag *)
  index : int Labels.t;  (** label -> position *)
  body : Vp_isa.Instr.t list array;
  term : Vp_package.Pkg.term array;
  taken_prob : float option array;
  weight : int array;
  first : int array;
      (** successor position: a branch's taken target, the one target
          of other transfers; -1 for none or a label outside the
          package *)
  second : int array;  (** a branch's fall-through position; -1 otherwise *)
  alive : bool array;  (** false once a block is absorbed by another *)
  owner : int array;  (** absorbed block -> its absorber; itself otherwise *)
  mutable order : int array;  (** output order of the live blocks *)
}

val of_pkg : Vp_package.Pkg.t -> t

val to_pkg : t -> Vp_package.Pkg.t
(** The live blocks in [order]; sites of absorbed blocks move to the
    block that absorbed them. *)

val size : t -> int
(** Blocks indexed, absorbed ones included. *)

val find : t -> string -> int
(** Position of a label, or -1. *)

val label : t -> int -> string
val is_exit : t -> int -> bool

val marks : t -> string list -> bool array
(** Per position: whether the block's label is in the list. *)

val live_in : t -> int array
(** Package-level live-in register mask of every live block.  Exit
    blocks seed their out-set with the recorded live registers across
    the exited arc; returns use the calling convention's registers;
    halts use the result register. *)
