(** Architectural machine state: 32 integer registers and a word
    memory of [mem_words] words, of which only a data region at the
    bottom and a stack region at the top are allocated, each grown as
    stores reach past it; words never stored read 0.  Register 0 reads
    as zero and swallows writes.  The initial return address is
    {!halt_address}; a [Ret] landing there stops the machine, which is
    how the entry function terminates without a [Halt]. *)

type t = {
  regs : int array;
      (** The register file, indexed by register number.  Slot 0 holds
          0 and a writer must never store into it: that keeps {!reg}'s
          zero-register rule. *)
  mutable data : int array;
      (** The data region: the words [0 .. length data - 1], sized from
          the image's [data_break]. *)
  mutable stack : int array;
  mutable stack_base : int;
      (** The stack region: the words [stack_base .. mem_words - 1],
          [stack_base = mem_words - length stack].  Words between the
          two regions read 0; a nonzero store there replaces the
          nearer region with a larger copy ({!set_mem}).  Addresses
          outside [0 .. mem_words - 1] fault ({!load_fault},
          {!store_fault}). *)
  mem_words : int;  (** The architectural memory size, in words. *)
  stack_floor : int;
      (** Addresses at or above it are stack, outside the store digest
          (see {!bump_store_digest}). *)
  mutable program_counter : int;
      (** The published pc ({!pc}): exact between runs; during a
          compiled run it is only written on a fault path, just before
          the fault is raised, so the fault message names it. *)
  mutable digest : int;  (** The running store digest. *)
  mutable dirty : int array;
  mutable n_dirty : int;
      (** The dirty-word journal: while [n_dirty >= 0], the address of
          every nonzero word of memory is in [dirty.(0 .. n_dirty - 1)]
          (-1 once it overflowed, past 65,536 entries or the two
          regions' length), so the arena
          scrubs only those words.  Any writer that turns a zero word
          nonzero must call {!journal} on it. *)
}
(** The record is visible for code that runs loads and stores without
    a call per access (the compiled backend): it must keep the
    invariants above, leave the stores between the regions to
    {!set_mem}, and fold each store into [digest] exactly as
    {!bump_store_digest} does.  The differential tests pin its
    outcomes to the reference interpreter's, which goes through
    {!mem}, {!set_mem} and {!bump_store_digest}. *)

val halt_address : int
(** Sentinel return address (-1). *)

val create : mem_words:int -> Vp_prog.Image.t -> t
(** Fresh state: pc at the image entry, sp at the top of memory, ra at
    {!halt_address}, memory initialised from the image's data
    initialisers.  The data region covers the image's [data_break],
    the stack region 4,096 words.  Both regions and the journal are
    taken from this domain's arena when a state of the same
    [mem_words] was {!release}d. *)

val release : t -> unit
(** Return [t]'s regions to the domain-local arena for the next
    {!create} to reuse.  The reuser re-zeroes only the words [t]
    actually dirtied (tracked in a journal), or both regions once the
    journal overflowed.  The arena keeps the two most recently released
    states.  Only call when [t] is provably dead — the emulator does so
    when a run completes, a session when its program halts; states
    created directly need not bother.  A released state must not be
    read or written again: its memory may belong to a newer state. *)

val pc : t -> int
val set_pc : t -> int -> unit

val reg : t -> Vp_isa.Reg.t -> int
val set_reg : t -> Vp_isa.Reg.t -> int -> unit

exception Fault of string
(** Raised on out-of-range memory access, with pc context. *)

val mem : t -> int -> int
val set_mem : t -> int -> int -> unit

val load_fault : t -> int -> 'a
val store_fault : t -> int -> 'a
(** [load_fault t addr] raises the {!Fault} of an out-of-range load
    from [addr] ([store_fault] of a store), naming the published pc:
    the exact message {!mem} and {!set_mem} raise. *)

val journal : t -> int -> unit
(** [journal t addr] records a zero-to-nonzero transition of the word
    at [addr] in the dirty-word journal. *)

val bump_store_digest : t -> int -> int -> unit
(** [bump_store_digest t addr v] folds one store into the running
    store digest, a hash over the (address, value) store stream —
    divergence between an original and a rewritten binary shows up
    there.  Stores at or above [stack_floor] (the top quarter of
    memory, capped at 64K words) are excluded: spills and frame locals are
    private scratch, and dead callee-save traffic legitimately differs
    once the optimizer deletes computations whose results the program
    never consumes. *)

val checksum : t -> int
(** Final architectural checksum: the store digest (see
    {!bump_store_digest}) folded with the result register.  Dead
    register values at halt are deliberately excluded so
    semantics-preserving optimizations (dead-code sinking) remain
    checksum-equal. *)
