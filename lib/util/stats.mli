(** Small statistics helpers used by the evaluation harness. *)

val mean : float list -> float
(** Arithmetic mean; 0 on the empty list. *)

val ratio : int -> int -> float
(** [ratio num den] as a float; 0 when [den] is 0. *)

val pct : int -> int -> float
(** [pct num den] = 100 * num / den; 0 when [den] is 0. *)
