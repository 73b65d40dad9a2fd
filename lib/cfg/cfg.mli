(** Control-flow graph recovery from a binary image.

    This is the post-link view: blocks are discovered by scanning a
    function's address range for leaders (the function entry, branch
    targets, and the instruction after any control instruction), with
    no access to compiler metadata.  Blocks are identified by their
    index in ascending address order; block 0 is the function entry.

    Arcs carry the direction that produced them: [Taken] for branch
    and jump targets, [Fallthrough] for the not-taken direction and
    for straight-line continuation (including continuation after a
    call). *)

type arc_kind = Taken | Fallthrough

type arc = { src : int; dst : int; kind : arc_kind }

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

val branch_addr : t -> int -> int option
(** Address of the block's conditional branch, when its terminator is
    one — the key the Branch Behavior Buffer profiles. *)

val succs : t -> int -> arc list
val preds : t -> int -> arc list
val arcs : t -> arc list
(** Every intra-function arc, in deterministic order. *)

val call_sites : t -> (int * int) list
(** [(block, callee_entry_address)] for every block ending in a call. *)

val back_edges : t -> (int * int) list
(** DFS back edges from the entry: arcs (src, dst) closing a cycle.
    Unreachable blocks contribute none. *)

val preds_ignoring_back_edges : t -> int -> arc list
