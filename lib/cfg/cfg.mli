(** Control-flow graph recovery from a binary image.

    This is the post-link view: blocks are discovered by scanning a
    function's address range for leaders (the function entry, branch
    targets, and the instruction after any control instruction), with
    no access to compiler metadata.  Blocks are identified by their
    index in ascending address order; block 0 is the function entry.

    Arcs carry the direction that produced them: [Taken] for branch
    and jump targets, [Fallthrough] for the not-taken direction and
    for straight-line continuation (including continuation after a
    call).

    Every arc carries a dense id, [0 .. num_arcs - 1], numbered in
    {!arcs} order (block by block, each block's out-arcs in {!succs}
    order), so passes can keep per-arc facts in arrays indexed by id.
    Each arc also carries its back-edge flag, and each block its
    {!ending}, both fixed at recovery. *)

type arc_kind = Taken | Fallthrough

type arc = private {
  id : int;  (** dense, [0 .. num_arcs - 1] *)
  src : int;
  dst : int;
  kind : arc_kind;
  back : bool;
      (** [(src, dst)] is in {!back_edges} — so both arcs of a
          conditional branch whose target is its own fall-through carry
          the flag when either closes a cycle *)
}

type ending =
  | Straight  (** last instruction is not a control instruction *)
  | Jump
  | Branch  (** conditional branch *)
  | Call
  | Return
  | Halt

type t

val recover : Vp_prog.Image.t -> Vp_prog.Image.sym -> t
(** Build the CFG of one function from the image.  Branch targets
    outside the function's range do not create intra-function arcs. *)

val sym : t -> Vp_prog.Image.sym
val image : t -> Vp_prog.Image.t

val num_blocks : t -> int
val entry : t -> int
(** Always 0. *)

val start : t -> int -> int
(** Start address of a block. *)

val len : t -> int -> int

val block_at : t -> int -> int option
(** Block containing the given address, if inside this function. *)

val instrs : t -> int -> Vp_isa.Instr.t list
(** Instruction sequence of a block. *)

val terminator : t -> int -> Vp_isa.Instr.t option
(** The block's trailing control instruction, if any. *)

val ending : t -> int -> ending
(** How the block ends, precomputed at recovery (no image fetch). *)

val branch_addr : t -> int -> int option
(** Address of the block's conditional branch, when its terminator is
    one — the key the Branch Behavior Buffer profiles. *)

val succs : t -> int -> arc list
val preds : t -> int -> arc list
(** In-arcs in ascending id order. *)

val arcs : t -> arc list
(** Every intra-function arc, in id order. *)

(** {1 Index access}

    Allocation-free views of the same arcs, for passes that loop. *)

val num_arcs : t -> int
val arc : t -> int -> arc
(** The arc with the given id. *)

val out_degree : t -> int -> int
val succ : t -> int -> int -> arc
(** [succ t b k] is the [k]-th element of [succs t b]. *)

val in_degree : t -> int -> int
val pred : t -> int -> int -> arc
(** [pred t b k] is the [k]-th element of [preds t b]. *)

val call_sites : t -> (int * int) list
(** [(block, callee_entry_address)] for every block ending in a call. *)

val callees : t -> (int * Vp_prog.Image.sym) array
(** [(block, callee)] for every call site, in {!call_sites} order, whose
    callee address lies inside a symbol of the image ({!Vp_prog.Image.sym_at}),
    resolved once at recovery. *)

val back_edges : t -> (int * int) list
(** DFS back edges from the entry: arcs (src, dst) closing a cycle.
    Unreachable blocks contribute none. *)

val preds_ignoring_back_edges : t -> int -> arc list
(** {!preds} without the arcs flagged [back]. *)
