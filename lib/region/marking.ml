module Cfg = Vp_cfg.Cfg
module Image = Vp_prog.Image
module Snapshot = Vp_hsd.Snapshot

type config = {
  arc_hot_fraction : float;
  hot_arc_weight_threshold : int;
}

let default = { arc_hot_fraction = 0.25; hot_arc_weight_threshold = 16 }

type stats = {
  marked : int;
  skipped_no_symbol : int;
  skipped_no_block : int;
  skipped_not_terminator : int;
}

let classify_direction config ~executed ~weight =
  let fraction =
    if executed = 0 then 0.0 else float_of_int weight /. float_of_int executed
  in
  if fraction >= config.arc_hot_fraction || weight > config.hot_arc_weight_threshold
  then Temperature.Hot
  else Temperature.Cold

(* A BBB entry that does not map back onto the program — an address
   outside every symbol, inside no recovered block, or not the block's
   branch — is hardware noise (aliasing, a stale entry, a perturbed
   profile).  The paper's pipeline must survive a lossy profile, so
   such entries are skipped and counted rather than fatal. *)
type outcome = Marked | No_symbol | No_block | Not_terminator

let mark_entry config region (e : Snapshot.entry) =
  let image = Region.image region in
  match Image.sym_at image e.Snapshot.pc with
  | None -> No_symbol
  | Some sym ->
    let mf = Region.add_func region sym in
    let cfg = Region.cfg mf in
    (match Cfg.block_at cfg e.Snapshot.pc with
    | None -> No_block
    | Some b ->
      let is_its_branch =
        match Cfg.ending cfg b with
        | Cfg.Branch -> Cfg.start cfg b + Cfg.len cfg b - 1 = e.Snapshot.pc
        | Cfg.Straight | Cfg.Jump | Cfg.Call | Cfg.Return | Cfg.Halt -> false
      in
      if not is_its_branch then Not_terminator
      else begin
        let _ = Region.set_temp mf b Temperature.Hot in
        Region.add_weight mf b e.Snapshot.executed;
        Region.set_taken_prob mf b (Snapshot.taken_fraction e);
        for k = 0 to Cfg.out_degree cfg b - 1 do
          let a = Cfg.succ cfg b k in
          let weight =
            match a.Cfg.kind with
            | Cfg.Taken -> e.Snapshot.taken
            | Cfg.Fallthrough -> e.Snapshot.executed - e.Snapshot.taken
          in
          Region.set_arc_weight mf a weight;
          let t = classify_direction config ~executed:e.Snapshot.executed ~weight in
          let _ = Region.set_arc_temp mf a t in
          ()
        done;
        Marked
      end)

let mark_with_stats ?(config = default) region =
  let marked = ref 0
  and no_symbol = ref 0
  and no_block = ref 0
  and not_terminator = ref 0 in
  List.iter
    (fun e ->
      incr
        (match mark_entry config region e with
        | Marked -> marked
        | No_symbol -> no_symbol
        | No_block -> no_block
        | Not_terminator -> not_terminator))
    (Region.snapshot region).Snapshot.branches;
  {
    marked = !marked;
    skipped_no_symbol = !no_symbol;
    skipped_no_block = !no_block;
    skipped_not_terminator = !not_terminator;
  }

let mark ?config region = ignore (mark_with_stats ?config region)
