(** Static soundness verification of emitted package images.

    An unsound rewrite is a crash, not a slowdown, so every image the
    packager emits is checked before anything simulates it.  The
    verifier re-derives its obligations from the original image — it
    shares no state with {!Emit} beyond the emitted {!Emit.result} —
    and checks four families:

    - {b control-flow closure}: every control target in appended code
      is a resolved address that lands inside package code or back in
      the original program; no unresolved labels survive emission.
    - {b side-exit liveness}: every [Exit_jump] leaves to the start of
      a recovered original-code block, and the registers live into
      that block (per {!Vp_cfg.Liveness} on the {e original} image)
      are all recorded in the exit block's [live_out] dummy consumers.
    - {b launch-point patching}: the patch set equals the left-most
      claim rule recomputed from the groups, each patch is a [Jmp]
      into the claiming package's section, and every unpatched
      original address is byte-identical to the original image — the
      rewrite is reversible.
    - {b link agreement}: linked packages share their group's root,
      and each cross-package link lands on a copy of the promised
      original address under the promised inline context.

    The verifier never raises on a malformed result; it reports. *)

type violation = {
  pkg : string option;  (** offending package id, when attributable *)
  what : string;
  addr : int option;
  label : string option;
}

type report = {
  packages : int;  (** packages checked *)
  checked_instructions : int;  (** appended instructions scanned *)
  exits_checked : int;  (** side exits with liveness obligations *)
  patches_checked : int;
  links_checked : int;
  violations : violation list;
}

val ok : report -> bool

val check : original:Vp_prog.Image.t -> Emit.result -> report
(** [check ~original r] verifies [r] against the pre-rewrite image
    [original].  [original] must be the image the packages were built
    from (launch patches overwrite it in [r.image], so obligations are
    recomputed from the clean copy). *)

val pp_report : Format.formatter -> report -> unit
