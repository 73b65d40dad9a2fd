(** Each function's CFG and liveness, recovered once per image.

    Region formation recovers the CFG of every function a phase
    touches, packaging needs its liveness, and the verifier needs both
    again for the original image; phases of one binary share most of
    their functions.  This memo keeps, per domain, the recovered
    functions of the two most recently used images (a
    {!Vp_util.Identity_memo} keyed by the image's physical identity),
    so every phase region of an image shares one CFG per function.
    Both values are pure, so sharing changes no result. *)

val cfg : Vp_prog.Image.t -> Vp_prog.Image.sym -> Cfg.t
(** {!Cfg.recover}, memoized per image and symbol name. *)

val liveness : Cfg.t -> Liveness.t
(** {!Liveness.compute}, memoized alongside the CFG when [cfg] came
    from {!cfg} on this domain; computed afresh otherwise. *)
