(** Figure 9: categorisation of hot-spot branch behaviour across
    phases.

    A static branch appearing in exactly one unique phase is [Unique]
    (biased or unbiased within that phase).  A branch appearing in
    several phases is [Multi]; if it is biased in at least one phase,
    the swing of its per-phase taken fractions picks the bucket
    (> 0.7 high, 0.4–0.7 low, otherwise same); a multi branch never
    biased in any phase is [Multi_no_bias].  [Uncaptured] covers
    dynamic branch executions whose static branch never appeared in
    any hot spot. *)

type category =
  | Unique_biased
  | Unique_unbiased
  | Multi_high
  | Multi_low
  | Multi_same
  | Multi_no_bias
  | Uncaptured

val all_categories : category list
val category_name : category -> string

val of_branch : ?bias_threshold:float -> float list -> category
(** Categorise from the per-phase taken fractions of one branch
    (one element per unique phase containing it; must be non-empty). *)

val classify :
  ?bias_threshold:float -> Phase_log.t -> (int * category) list
(** Category of every static branch appearing in at least one phase,
    ascending by pc. *)

type weights = (category * float) list
(** Percentage of dynamic branch executions per category; sums to 100
    when any branches executed. *)

val weighted :
  ?bias_threshold:float ->
  Phase_log.t ->
  dynamic:Vp_exec.Branch_profile.t ->
  weights
(** [dynamic] is the whole-run (executed, taken) profile —
    [Driver.profile.aggregate]. *)
