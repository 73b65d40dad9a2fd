(** A hot-spot snapshot: the Branch Behavior Buffer contents recorded
    at a phase detection, plus the dynamic extent over which the phase
    was active.  This is the only profile information the software
    pipeline ever sees — deliberately lossy, per the paper. *)

type entry = {
  pc : int;  (** static address of the conditional branch *)
  executed : int;  (** saturating executed count at snapshot time *)
  taken : int;  (** saturating taken count at snapshot time *)
}

type t = {
  id : int;  (** detection order, from 0 *)
  detected_at : int;  (** dynamic branch index of the detection *)
  ended_at : int;  (** dynamic branch index when the phase dissolved *)
  branches : entry list;  (** ascending by pc *)
}

val taken_fraction : entry -> float

type bias = Taken | Not_taken | Unbiased

val bias : ?threshold:float -> entry -> bias
(** Direction bias; an entry is biased when its taken fraction is at
    least [threshold] (default 0.9) or at most 1 - threshold. *)

val branch_pcs : t -> int list
(** Ascending. *)

val find : t -> int -> entry option

val extent : t -> int
(** [ended_at - detected_at]: dynamic branches spent in the phase. *)
