(** The composite Hot Spot Detector: Branch Behavior Buffer plus Hot
    Spot Detection Counter, with the refresh and clear timers of the
    paper's Table 2.

    Operation: the HDC starts saturated at its maximum.  Every retired
    conditional branch updates the BBB; a candidate branch drives the
    HDC down by [hdc_dec], a non-candidate (or dropped) branch drives
    it up by [hdc_inc], saturating at both ends.  When the HDC reaches
    zero, candidate branches account for more than inc/(inc+dec) of
    recent control flow — a hot spot.  The BBB candidate set is
    recorded, the table is cleared, and monitoring re-arms, so a
    stable phase is re-detected and re-recorded periodically — exactly
    the paper's baseline behaviour, with redundant recordings removed
    later in software ({!Vp_phase}) or, optionally, suppressed in
    hardware by a snapshot history (the enhancement of [4]), modelled
    by the [history] parameters below.

    The refresh timer periodically zeroes non-candidate counters so
    cold branches cannot accumulate into candidacy across unrelated
    execution; the clear timer empties the table when nothing has been
    detected for a long time. *)

type t

val create :
  ?config:Config.t ->
  ?history_size:int ->
  ?same:(Snapshot.t -> Snapshot.t -> bool) ->
  unit ->
  t
(** [history_size] (default 0) keeps the last N recorded snapshots in
    a hardware-style history; a new detection matching any of them
    under [same] is not recorded again (its extent still extends the
    match).  [same] defaults to never-equal, so by default every
    detection is recorded. *)

val set_hooks :
  ?on_detect:(branches:int -> detections:int -> unit) ->
  ?on_record:(branches:int -> id:int -> unit) ->
  ?on_rearm:(branches:int -> rearms:int -> unit) ->
  t ->
  unit
(** Install run-time event callbacks (the telemetry layer's view of
    the hardware).  [on_detect] fires at every raw detection (HDC
    reached zero) with the retired-branch index and the running
    detection count; [on_record] fires when a snapshot is actually
    recorded, stamped with the same retired-branch index the
    snapshot's [detected_at] carries — phase extents are recoverable
    from the stamps alone, without re-running; [on_rearm] fires at
    every detector reset (one per detection, plus clear-interval
    expiries).  Hooks fire only at these rare events, never on the
    per-branch path; omitted arguments leave the existing hook in
    place. *)

val on_branch : t -> pc:int -> taken:bool -> unit
(** Feed one retired conditional branch; wire this to
    [Vp_exec.Emulator.run_backend ~on_branch]. *)

val replay : t -> (int * bool) array -> unit
(** Feed a recorded (pc, taken) stream through {!on_branch} in order —
    the external-trace ingestion entry: a detector replaying a trace
    reaches exactly the state of one that watched the run live. *)

val snapshots : t -> Snapshot.t list
(** Recorded hot spots in detection order.  Each snapshot's extent
    runs from its detection to the next recording (or to the current
    branch count for the last one). *)

val branches_seen : t -> int
val hdc_value : t -> int

val bbb_occupancy : t -> int
(** Valid BBB entries right now (= {!Bbb.occupancy}); sampled by the
    telemetry layer at interval boundaries. *)

val bbb_candidates : t -> int
(** BBB entries whose candidate flag is set right now. *)

val detections : t -> int
(** Raw detections, including ones suppressed by the history. *)

val recordings : t -> int
(** Snapshots actually recorded (= length of {!snapshots}). *)

val rearms : t -> int
(** Detector resets: one per detection, plus one per clear-interval
    expiry with nothing detected. *)

val history_suppressed : t -> int
(** Detections whose snapshot matched the hardware history and was
    therefore not recorded. *)
