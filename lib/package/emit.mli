(** Package emission: linearise packages, append them to the binary
    image, and patch launch points.

    Linearisation walks each package's blocks in its order,
    materialising a jump wherever a fall-through edge is not adjacent;
    inlined call sites expand to a return-address materialisation plus
    a jump.  Every live block of a run is placed once from its size, so
    a (package, position) pair has its address — cross-package links
    like any other target — and resolved code is written straight into
    the rewritten image, launch patches included, in one copy of the
    original code.

    Launch points: every entry block's original address is patched
    with a jump to the entry's package copy.  When several packages of
    a root group share an entry address, the left-most package in the
    group's chosen ordering wins (Section 3.3.4). *)

type result = {
  image : Vp_prog.Image.t;  (** rewritten binary *)
  packages : Pkg.t list;  (** final packages, post-linking and transform *)
  groups : Linking.group list;
  launch_patches : (int * int) list;  (** original address -> package address *)
  package_instructions : int;  (** emitted package code size *)
  branch_map : (int * int) list;
      (** emitted conditional-branch address -> original branch pc, one
          entry per emitted [Br] whose block carries a site record;
          sorted.  This is the decoder ring that lets a profile taken
          over the rewritten image be folded back into original-image
          pc space (session drift detection). *)
}

exception Rejected of Pkg.t * Vp_util.Error.t
(** An emission failure one package is to blame for, at stage
    ["emit"]: the package as its group holds it, and the error, whose
    label is the package id. *)

val of_groups :
  ?transform:(protected:int list -> Pkg.t -> Pkg.t) ->
  Vp_prog.Image.t ->
  Linking.group list ->
  result
(** Emit grouped packages (see {!Linking.group_packages_with_stats}).
    [transform] runs on each package after link resolution and before
    linearisation — the optimizer hook (layout, scheduling, superblock
    formation).  [protected] holds the positions of the package's
    blocks that are targets of cross-package links: they have unseen
    predecessors and must survive in place.  Raises {!Rejected} for a
    transfer to a block out of range or in no order, and for a link
    into a package outside its group; [Vp_util.Error.Error] at stage
    ["image"] for a launch address outside the image, and at stage
    ["emit"] if the appended code or a patched word fails
    {!Vp_prog.Image.validate}'s target checks. *)
