module Cfg = Vp_cfg.Cfg
module T = Temperature

(* The rule helpers read one arc set of block [b]: its in-arcs when
   [incoming], else its out-arcs.  They are top-level index loops, so
   a sweep allocates nothing. *)

let degree cfg incoming b =
  if incoming then Cfg.in_degree cfg b else Cfg.out_degree cfg b

let nth cfg incoming b k = if incoming then Cfg.pred cfg b k else Cfg.succ cfg b k

let all_cold mf cfg incoming b =
  let n = degree cfg incoming b in
  let cold = ref (n > 0) in
  for k = 0 to n - 1 do
    if not (T.is_cold (Region.arc_temp mf (nth cfg incoming b k))) then cold := false
  done;
  !cold

let any_hot mf cfg incoming b =
  let hot = ref false in
  for k = 0 to degree cfg incoming b - 1 do
    if T.is_hot (Region.arc_temp mf (nth cfg incoming b k)) then hot := true
  done;
  !hot

(* Statement 6 over one arc set; true when any arc changed. *)
let set_all_cold mf cfg incoming b =
  let changed = ref false in
  for k = 0 to degree cfg incoming b - 1 do
    if Region.set_arc_temp mf (nth cfg incoming b k) T.Cold then changed := true
  done;
  !changed

(* Statement 7 over one arc set: when exactly one arc is not known
   Cold, it becomes Hot. *)
let infer_last mf cfg incoming b =
  let open_arcs = ref 0 and last = ref 0 in
  for k = 0 to degree cfg incoming b - 1 do
    if not (T.is_cold (Region.arc_temp mf (nth cfg incoming b k))) then begin
      incr open_arcs;
      last := k
    end
  done;
  !open_arcs = 1 && Region.set_arc_temp mf (nth cfg incoming b !last) T.Hot

(* One sweep over a single marked function; returns true when any
   temperature changed. *)
let sweep_function region block_inference (mf : Region.mf) =
  let cfg = Region.cfg mf in
  let changed = ref false in
  for b = 0 to Cfg.num_blocks cfg - 1 do
    (* Statements 3-4 solve *unknown* temperatures only (Figure 4,
       statement 1); a known block never changes.  Without block
       inference the profile is trusted for branch blocks. *)
    if
      T.equal (Region.temp mf b) T.Unknown
      && (block_inference
         || match Cfg.ending cfg b with Cfg.Branch -> false | _ -> true)
    then begin
      if
        (all_cold mf cfg true b || all_cold mf cfg false b)
        && Region.set_temp mf b T.Cold
      then changed := true;
      (* Statement 4: any adjacent Hot arc => Hot. *)
      if
        (any_hot mf cfg true b || any_hot mf cfg false b)
        && Region.set_temp mf b T.Hot
      then changed := true
    end;
    match Region.temp mf b with
    | T.Cold ->
      (* Statement 6: every arc of a Cold block is Cold, in-arcs
         first. *)
      if set_all_cold mf cfg true b then changed := true;
      if set_all_cold mf cfg false b then changed := true
    | T.Hot ->
      (* Statement 7: all-but-one known-Cold => the remaining arc is
         Hot.  Applies separately to the in- and out-arc sets. *)
      if infer_last mf cfg true b then changed := true;
      if infer_last mf cfg false b then changed := true
    | T.Unknown -> ()
  done;
  (* Statement 9: Hot call block => callee prologue Hot.  May add new
     functions to the region.  Call sites ascend by block and the rule
     only ever heats an entry block (block 0, visited first), so
     reading temperatures as the loop goes sees what a read up front
     would. *)
  let callees = Cfg.callees cfg in
  for k = 0 to Array.length callees - 1 do
    let b, sym = callees.(k) in
    if T.is_hot (Region.temp mf b) then begin
      let callee = Region.add_func region sym in
      if Region.set_temp callee (Cfg.entry (Region.cfg callee)) T.Hot then
        changed := true
    end
  done;
  !changed

(* A sweep that changes nothing leaves its function as it was, and its
   outcome depends only on the function's own temperatures and the
   rules in force: the call rule only heats callee entries, which such
   a sweep found Hot already, and Hot is never undone.  So while the
   function's {!Region.version} holds, sweeping it again would change
   nothing either, and is skipped.  Only conflict-free sweeps are
   stamped, since a skipped sweep would not repeat its conflicts. *)
let quiet_stamp mf block_inference =
  (2 * Region.version mf) + Bool.to_int block_inference

let run ?(block_inference = true) region =
  let rounds = ref 0 in
  let continue_ = ref true in
  while !continue_ do
    incr rounds;
    (* A sweep visits the functions present when it starts; those the
       call rule adds are first swept next round, which the change
       they bring guarantees. *)
    let changed = ref false in
    for i = 0 to Region.num_funcs region - 1 do
      let mf = Region.func region i in
      let stamp = quiet_stamp mf block_inference in
      if Region.quiet mf <> stamp then begin
        let conflicts = Region.conflicts region in
        if sweep_function region block_inference mf then changed := true
        else if Region.conflicts region = conflicts then Region.set_quiet mf stamp
      end
    done;
    continue_ := !changed
  done;
  !rounds
