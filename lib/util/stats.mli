(** Small statistics helpers used by the evaluation harness. *)

val mean : float list -> float
(** Arithmetic mean; 0 on the empty list. *)

val percentile : float list -> float -> float
(** [percentile xs p] with [p] in [0, 100], nearest-rank on the sorted
    list; 0 on the empty list. *)

val ratio : int -> int -> float
(** [ratio num den] as a float; 0 when [den] is 0. *)

val pct : int -> int -> float
(** [pct num den] = 100 * num / den; 0 when [den] is 0. *)

val histogram : bins:int -> lo:float -> hi:float -> float list -> int array
(** Fixed-width histogram; values outside [lo, hi] clamp to the end
    bins. *)
