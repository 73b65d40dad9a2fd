(** Functional (architectural) emulation of a binary image.

    Two backends run the same machine: [Compiled], the block-threaded
    closures of {!Compile} (the default), and [Reference], the boxed
    interpreter over [Instr.t] that retires one instruction at a time —
    the executable specification the differential tests hold [Compiled]
    to.  A run has one observation channel, its retirement runs
    ({!Compile.on_run}), which every library stage observes.  This
    module also derives two older streams from them:

    - [on_branch] fires at every conditional-branch retirement with
      the branch's static address and its outcome — exactly the event
      stream the Hot Spot Detector consumes;
    - [on_retire] fires at every retirement with plain int arguments:
      the pc, [taken] (the outcome of a conditional branch, true for
      jumps, calls and returns), [next_pc] ({!State.halt_address} when
      the machine stops) and [mem_addr] (the effective address of a
      load or store, [-1] for every other instruction — no address in
      this machine is negative).

    The reference interpreter fires both natively: it is the oracle
    the derived streams are held to.  A conditional branch fires
    [on_branch] before its [on_retire].  Outcomes, checksums and both
    streams are bit-identical across backends, and on [Compiled] no
    stream allocates per retired instruction. *)

type outcome = {
  instructions : int;  (** dynamic instructions retired *)
  package_instructions : int;  (** retired from appended package code *)
  cond_branches : int;
  halted : bool;  (** false when fuel ran out *)
  checksum : int;
  result : int;  (** value of [Reg.ret_value] when the machine stopped *)
  final_pc : int;
}

val equivalent : reference:outcome -> outcome -> bool
(** The differential oracle's verdict: both runs halted, with the same
    checksum and the same result.  A run that ran out of fuel is never
    equivalent, whatever the other run did. *)

type backend = Reference | Compiled
(** Which execution core runs the workload: the boxed reference
    interpreter (the executable specification) or the block-compiled
    threaded code (the default). *)

val backend_name : backend -> string
(** ["reference"] or ["compiled"]. *)

val backend_of_string : string -> backend option
(** Inverse of {!backend_name}; [None] on an unknown name. *)

val all_backends : backend list

val run_backend :
  ?backend:backend ->
  ?fuel:int ->
  ?mem_words:int ->
  ?on_branch:(pc:int -> taken:bool -> unit) ->
  ?on_retire:(pc:int -> taken:bool -> next_pc:int -> mem_addr:int -> unit) ->
  ?on_run:Compile.on_run ->
  Vp_prog.Image.t ->
  outcome
(** Execute from the image entry on the chosen backend (default
    [Compiled]) until [Halt], a return to {!State.halt_address}, or
    fuel exhaustion (default fuel 200M), over a fresh state of
    [mem_words] words (default 1M) taken from and returned to the
    {!State} arena.  [Compiled] goes through the {!Compile.of_image}
    memo, so running the same image again compiles nothing; with no
    observer at all it runs the observer-free compiled variant.  Raises {!State.Fault}
    on out-of-range memory access, and [Vp_util.Error.Error] with stage
    ["emulator"] on a jump outside the image or an executed unresolved
    label. *)

val run_slice :
  ?backend:backend ->
  state:State.t ->
  fuel:int ->
  ?on_branch:(pc:int -> taken:bool -> unit) ->
  ?on_run:Compile.on_run ->
  Vp_prog.Image.t ->
  outcome
(** One bounded slice of execution over an external {!State.t}: resume
    from the state's current pc, retire at most [fuel] instructions,
    and leave the final pc in the state so the next slice continues
    exactly where this one stopped.  The outcome's counts cover only
    this slice; [checksum]/[result] read the (cumulative) state.  The
    caller owns the state — [run_slice] neither creates nor releases
    it, so a long-running session can thread one machine state through
    many slices, switching images between slices (hot patching) as
    long as every image shares the address space of the one the state
    was created for.  Bit-identical across backends at arbitrary fuel
    boundaries, like {!run_backend}.

    [on_run] observes retirement runs ({!Compile.on_run}): natively,
    one per block, on [Compiled] (no per-instruction call); runs of
    length 1 on [Reference].  The instructions the runs cover are the
    same on both backends, but not how they are grouped (a sampler
    that flushed at run boundaries would see it), nor whether a
    run-ending branch's [on_branch] fires before or after its run: an
    observer must depend on neither. *)
