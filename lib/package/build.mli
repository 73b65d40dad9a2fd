(** Package construction (Section 3.3.3): one package per root
    function of a region, copying the root's hot blocks and partially
    inlining hot callees.

    Inlining decisions: a callee is inlined when it is a region
    function, passes the prologue/epilogue/path test, and does not
    already appear on the inline path — except that a direct
    self-recursive call is inlined exactly once (the paper's single
    self-copy).  Calls that are not inlined become calls to the
    original code; since launch points redirect hot entries into
    packages, deep recursive calls re-enter the package on their own.

    At every inlined call site the original continuation address is
    still materialised into [ra], so a cold exit into original callee
    code returns to original caller code correctly. *)

val build : Vp_region.Region.t -> prefix:string -> Pkg.t list
(** One package per root, in region insertion order.  [prefix] seeds
    package ids (e.g. ["pkg$p3"]). *)
