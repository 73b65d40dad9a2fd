(** Block and arc temperatures (Section 3.2).  Blocks start [Unknown]
    (or [Hot] when they contain a snapshot branch); arcs start [Hot],
    [Cold] or [Unknown].  Inference only refines [Unknown] — a known
    temperature never changes, and on a conflicting double assignment
    [Hot] wins (tracked for diagnostics). *)

type t = Hot | Cold | Unknown

val is_hot : t -> bool
val is_cold : t -> bool

val name : t -> string
val equal : t -> t -> bool
