module Snapshot = Vp_hsd.Snapshot
module Emulator = Vp_exec.Emulator

(* The selection floor: a branch qualifies when its executions are at
   least this share of all retired conditional branches. *)
let min_share = 0.001

let floor_count (p : Driver.profile) =
  max 1
    (int_of_float
       (min_share *. float_of_int p.Driver.outcome.Emulator.cond_branches))

let snapshot_of_profile (p : Driver.profile) =
  let total = p.Driver.outcome.Emulator.cond_branches in
  let min_executed = floor_count p in
  let branches =
    Vp_exec.Branch_profile.fold
      (fun ~pc ~executed ~taken acc ->
        if executed >= min_executed then { Snapshot.pc; executed; taken } :: acc
        else acc)
      p.Driver.aggregate []
    |> List.rev
  in
  { Snapshot.id = 0; detected_at = 0; ended_at = total; branches }

let rewrite ?(config = Config.default) p =
  (* The paper's absolute arc threshold (16) is calibrated to 9-bit
     saturating hardware counters.  Aggregate counts are exact, so the
     equivalent selection threshold scales with the run: the same
     [min_share] floor used for branch selection. *)
  let config =
    Config.map_identify
      (fun identify ->
        {
          identify with
          Vp_region.Identify.marking =
            {
              identify.Vp_region.Identify.marking with
              Vp_region.Marking.hot_arc_weight_threshold = floor_count p;
            };
        })
      config
  in
  Driver.rewrite_of_profile ~config
    (Driver.with_snapshots p [ snapshot_of_profile p ])
