(** The mutable region representation shared by the marking, inference
    and growth passes: per-function CFGs annotated with block/arc
    temperatures, weights and taken probabilities.

    A region corresponds to one unique hot spot.  Functions enter the
    region lazily — when a snapshot branch lands in them, or when the
    interprocedural call rule pulls a callee in. *)

type mf
(** A marked function.  Block facts are arrays indexed by block, arc
    facts arrays indexed by {!Vp_cfg.Cfg.arc} id. *)

type t

val create : Vp_prog.Image.t -> Vp_hsd.Snapshot.t -> t

val image : t -> Vp_prog.Image.t
val snapshot : t -> Vp_hsd.Snapshot.t

val add_func : t -> Vp_prog.Image.sym -> mf
(** Add the symbol's function if not present (all blocks and arcs
    [Unknown]), its CFG from {!Vp_cfg.Cfg_memo}; return its marked
    function either way. *)

val find_func : t -> string -> mf option
val funcs : t -> (string * mf) list
(** Insertion order. *)

val num_funcs : t -> int
val func : t -> int -> mf
(** [func t i] is the [i]-th function of {!funcs}, without building
    the list. *)

(** {1 Marked-function accessors} *)

val cfg : mf -> Vp_cfg.Cfg.t

val temp : mf -> int -> Temperature.t

val set_temp : mf -> int -> Temperature.t -> bool
(** Refine a block temperature.  Returns true when something changed.
    [Unknown] never overwrites a known value; on a Hot/Cold conflict
    the block stays (or becomes) [Hot] and the conflict counter
    increments. *)

val weight : mf -> int -> int
val add_weight : mf -> int -> int -> unit

val taken_prob : mf -> int -> float option
val set_taken_prob : mf -> int -> float -> unit

val force_hot : mf -> int -> unit
(** Overwrite a block temperature to [Hot] regardless of its current
    value, without counting a conflict — used by the opportunistic
    connector adoption of {!Growth}, which deliberately overrides a
    [Cold] inference. *)

val arc_temp : mf -> Vp_cfg.Cfg.arc -> Temperature.t
val set_arc_temp : mf -> Vp_cfg.Cfg.arc -> Temperature.t -> bool

val force_hot_arc : mf -> Vp_cfg.Cfg.arc -> unit

val version : mf -> int
(** Counts the temperature changes made to the function (block or
    arc, by any setter): while it stays the same, so does every
    temperature of the function. *)

val quiet : mf -> int
val set_quiet : mf -> int -> unit
(** A stamp {!Inference} keeps with the function (initially [-1]): the
    state in which a sweep last found nothing to change. *)

val arc_weight : mf -> Vp_cfg.Cfg.arc -> int
val set_arc_weight : mf -> Vp_cfg.Cfg.arc -> int -> unit

(** {1 Derived views} *)

val hot_blocks : mf -> int list

val exit_arcs : mf -> Vp_cfg.Cfg.arc list
(** Arcs leaving the selected code: [Hot] source block, but the arc or
    its destination is not [Hot]. *)

val selected_instructions : t -> int
(** Static instructions in all [Hot] blocks of the region. *)

val conflicts : t -> int
(** Hot/Cold double-assignment count (diagnostics). *)
