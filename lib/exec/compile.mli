(** Block-threaded closure compilation of a decoded image.

    {!of_image} partitions the image into basic blocks and compiles
    each block into one OCaml closure that executes the whole block
    straight-line over the {!State} arena: operands, immediates, ALU
    ops and branch conditions are baked into the closure environments
    at compile time, and block terminators enter the successor
    block's body directly through a block-indexed array (threaded
    code — every transfer is a tail call, so the OCaml stack stays
    flat).  Fuel is checked once per block, by a block entry inlined
    into every transfer; a block that no longer fits in the remaining
    fuel falls back to a boundary interpreter with per-instruction
    accounting, so outcomes are exact.  Registers and memory are read
    and written in the state's own arrays ({!State.t}), without a call
    per access.

    Two specialized variants of every block exist, each compiled on
    first use: a fast one with no observation code at all, and a
    run-observed one that reports retirement {e runs} (see {!on_run}),
    its one observation channel.  {!exec} picks the variant from
    whether an observer is given; outcomes and checksums are
    bit-identical to the reference interpreter's
    ([Emulator.run_backend ~backend:Reference]), the differential
    oracle, and so is the per-instruction stream a run expands to. *)

type t

type result = {
  instructions : int;
  package_instructions : int;
  cond_branches : int;
  halted : bool;
}
(** Raw run counters; the caller owns the {!State} and derives
    checksum/result/final pc from it. *)

val compile : Decode.t -> t
(** Partition the decoded image into basic blocks.  O(size); each
    variant's closures are built on its first {!exec}, where all
    specialization happens so execution never matches on tags. *)

val of_image : Vp_prog.Image.t -> t
(** {!compile} of [Decode.of_image] through a two-entry domain-local
    memo keyed by physical image identity — the one memo of both forms:
    {!decode} on its result is how every other reader (sessions, the
    timing model) gets the decoded image without decoding again. *)

val decode : t -> Decode.t

val block_count : t -> int

val block_of_pc : t -> int -> int
(** Block id when [pc] is a block leader, -1 mid-block. *)

val block_bounds : t -> int -> int * int
(** [(start pc, length)] of one block. *)

type on_run =
  addrs:int array -> start:int -> len:int -> taken:bool -> next_pc:int -> unit
(** One retirement run: the instructions [start .. start + len - 1]
    retired in sequence.  Every instruction but the last is a
    straight-line one (not taken, next pc = pc + 1); [taken] and
    [next_pc] describe the last.  A load or store at [pc] left its
    effective address in [addrs.(pc - start)]; the other slots hold
    stale values.  [addrs] belongs to the executing run and is
    overwritten by the next one.  Blocks report one run each (their
    terminator or fall-through end makes the call); the boundary
    interpreter reports runs of length 1, so fuel cuts stay exact.  A
    conditional branch is a run whose last instruction is tagged
    {!Decode.tag_br} or {!Decode.tag_br_unresolved}. *)

val exec :
  t ->
  State.t ->
  fuel:int ->
  ?on_run:on_run ->
  unit ->
  result
(** Run compiled code from the state's current pc until halt, a return
    to {!State.halt_address}, or fuel exhaustion, leaving the final pc
    in the state exactly as the reference interpreter would.
    A run with [on_run] uses the run-observed variant, one without it
    the fast one.  An exception escaping mid-block (a
    {!State.Fault}, an executed unresolved label) first reports the
    block's retired prefix — the instructions before the faulting one —
    as a run, so the observers see exactly the retirements the reference
    interpreter would have fed them. *)
