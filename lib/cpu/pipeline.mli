(** Trace-driven timing model of the Table 2 EPIC machine.

    The compiled functional emulator ({!Vp_exec.Compile}) supplies the
    retired instruction stream, one retirement run per basic block;
    the model walks each run over per-pc timing facts of the image.
    It charges cycles for in-order multi-issue
    with functional unit contention, operand latency interlocks,
    I-cache/D-cache/L2 misses, taken-branch fetch redirects and
    branch/return mispredictions (charged at the 7-cycle resolution
    depth).
    Wrong-path cache pollution is not simulated — the misprediction
    penalty is the paper's fixed resolution latency (documented
    substitution in DESIGN.md).

    Whole-block runs are timed in two phases: the stream-determined
    cache, line-buffer and predictor work first, then issue — either
    replayed from a per-block memo of exact deltas keyed by the
    block's entry signature, or walked one instruction at a time
    (DESIGN.md §7g).  Every result is bit-identical to the walk. *)

module Cache : sig
  (** Set-associative LRU cache model shared by the I-cache, D-cache
      and L2. *)

  type t

  val create : Config.cache_geometry -> t

  val access : t -> addr:int -> bool
  (** True on hit; a miss installs the line (allocate-on-miss, LRU
      victim).  Every access counts in {!accesses}. *)

  val accesses : t -> int
  val misses : t -> int

  val reset : t -> unit
  (** Back to the post-{!create} state: every line invalid, stats
      zeroed.  The model pool reuses the arrays across simulations. *)
end

module Predictor : sig
  (** Branch prediction hardware of Table 2: a gshare direction
      predictor (2-bit counters, global history), a direct-mapped
      tagged BTB for taken-target lookup, and a return-address
      stack. *)

  type t

  val create : Config.t -> t

  val predict_branch : t -> pc:int -> taken:bool -> bool
  (** Predict-and-update for a conditional branch at [pc] with actual
      outcome [taken]; returns whether the prediction was correct. *)

  val btb_lookup : t -> pc:int -> target:int -> bool
  (** Was the taken-target available in the BTB?  Installs/updates the
      entry either way. *)

  val call_push : t -> return_addr:int -> unit

  val ret_predict : t -> actual:int -> bool
  (** Pop the RAS and compare with the actual return address. *)

  type stats = {
    branches : int;
    mispredictions : int;
    btb_lookups : int;
    btb_misses : int;
    returns : int;
    ras_misses : int;
  }

  val stats : t -> stats
end

type stats = {
  cycles : int;
  instructions : int;
  ipc : float;
  branch_mispredicts : int;
  ras_mispredicts : int;
  taken_redirects : int;  (** correctly predicted taken-branch bubbles *)
  icache_misses : int;
  dcache_misses : int;
  l2_misses : int;
  fetch_stall_cycles : int;
  data_stall_cycles : int;
  fetch_line_buffer_hits : int;
      (** fetches absorbed by the I-side line buffer (no cache access) *)
  data_line_buffer_hits : int;
      (** loads/stores absorbed by the D-side line buffer *)
}

val simulate :
  ?config:Config.t ->
  ?backend:Vp_exec.Emulator.backend ->
  ?fuel:int ->
  ?mem_words:int ->
  ?telemetry:Vp_telemetry.t ->
  Vp_prog.Image.t ->
  stats
(** Emulate the image and time its retirement stream.  [backend] is
    accepted and ignored: the feed always comes from the compiled
    emulator, whose retirement stream is bit-identical to every other
    backend's, so results do not depend on it.  [fuel] and [mem_words]
    default as in [Vp_exec.Emulator.run_backend].  With an enabled
    [telemetry] timeline, per-interval deltas of the timing series are
    recorded under the [timing.*] names ([instructions], [cycles],
    [icache_misses], [dcache_misses], [l2_misses], [mispredicts],
    [fetch_stalls], [data_stalls]), flushed at exact instruction
    counts; the disabled default costs one compare per retirement. *)

type phase_stats = {
  phase : int;  (** phase id from the timeline; -1 = between intervals *)
  branches : int;  (** retired conditional branches attributed *)
  seg_cycles : int;
  seg_instructions : int;
  seg_ipc : float;
}

val simulate_phases :
  ?config:Config.t ->
  ?fuel:int ->
  ?mem_words:int ->
  timeline:(int * int * int) list ->
  Vp_prog.Image.t ->
  phase_stats list
(** Attribute cycles and instructions to the phases of a
    {!Vp_phase.Phase_log.timeline} — per-phase IPC on the Table 2
    machine.  Sorted by phase id; detector warm-up windows between
    intervals report as phase [-1]. *)

val speedup : baseline:stats -> optimized:stats -> float
(** [baseline.cycles / optimized.cycles]. *)
