(** Whole-run aggregate branch profile: per-pc (executed, taken)
    counts behind an abstract type.

    Internally a pair of pc-indexed arrays — the shape the profiling
    hot path already accumulates into — so building one is free and
    lookups never hash.  Every traversal runs in ascending pc order,
    which keeps derived artifacts (fig9 category weights, aggregate
    pseudo-snapshots) deterministic. *)

type t

val of_counts : executed:int array -> takens:int array -> t
(** Wrap pc-indexed counter arrays (same length; ownership passes to
    the profile — do not mutate them afterwards).  Raises
    [Invalid_argument] on length mismatch. *)

val branches : t -> int
(** Static conditional branches with at least one execution. *)

val total_executed : t -> int
(** Dynamic conditional-branch executions, over all branches. *)

val find : t -> int -> (int * int) option
(** [(executed, taken)] for the branch at a pc; [None] when that pc
    never executed a conditional branch. *)

val iter : (pc:int -> executed:int -> taken:int -> unit) -> t -> unit
(** Visit profiled branches in ascending pc order. *)

val fold : (pc:int -> executed:int -> taken:int -> 'a -> 'a) -> t -> 'a -> 'a

val bindings : t -> (int * (int * int)) list
(** [(pc, (executed, taken))] ascending by pc — the classic table
    shape, for tests and diffing. *)
