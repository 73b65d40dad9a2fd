type raw = { id : int; detected_at : int; entries : Snapshot.entry list }

type t = {
  cfg : Config.t;
  hdc_max : int;
  bbb : Bbb.t;
  history_size : int;
  same : Snapshot.t -> Snapshot.t -> bool;
  mutable hdc : int;
  mutable branches : int;
  mutable since_refresh : int;
  mutable since_clear : int;
  mutable recorded_rev : raw list;
  mutable recorded_count : int;  (* List.length recorded_rev, kept O(1) *)
  mutable raw_detections : int;
  mutable rearms : int;
  mutable history_hits : int;
  (* Telemetry hooks, fired at detection/recording/re-arm time only —
     never on the per-branch path — so an unhooked detector pays one
     [None] match per (rare) event. *)
  mutable hook_detect : (branches:int -> detections:int -> unit) option;
  mutable hook_record : (branches:int -> id:int -> unit) option;
  mutable hook_rearm : (branches:int -> rearms:int -> unit) option;
}

let create ?(config = Config.default) ?(history_size = 0) ?(same = fun _ _ -> false)
    () =
  (match Config.validate config with
  | Ok () -> ()
  | Error e -> Vp_util.Error.failf ~stage:"detector" "Detector.create: %s" e);
  {
    cfg = config;
    hdc_max = Config.hdc_max config;
    bbb = Bbb.create config;
    history_size;
    same;
    hdc = Config.hdc_max config;
    branches = 0;
    since_refresh = 0;
    since_clear = 0;
    recorded_rev = [];
    recorded_count = 0;
    raw_detections = 0;
    rearms = 0;
    history_hits = 0;
    hook_detect = None;
    hook_record = None;
    hook_rearm = None;
  }

let set_hooks ?on_detect ?on_record ?on_rearm t =
  (match on_detect with Some _ -> t.hook_detect <- on_detect | None -> ());
  (match on_record with Some _ -> t.hook_record <- on_record | None -> ());
  match on_rearm with Some _ -> t.hook_rearm <- on_rearm | None -> ()

(* View a raw recording as a snapshot for history comparison; the
   extent is irrelevant to similarity. *)
let snapshot_of_raw r =
  { Snapshot.id = r.id; detected_at = r.detected_at; ended_at = r.detected_at;
    branches = r.entries }

let rec take n = function
  | [] -> []
  | x :: rest -> if n <= 0 then [] else x :: take (n - 1) rest

let in_history t entries =
  if t.history_size = 0 then false
  else
    let candidate =
      { Snapshot.id = -1; detected_at = t.branches; ended_at = t.branches;
        branches = entries }
    in
    List.exists
      (fun r -> t.same candidate (snapshot_of_raw r))
      (take t.history_size t.recorded_rev)

let rearm t =
  t.rearms <- t.rearms + 1;
  Bbb.clear t.bbb;
  t.hdc <- t.hdc_max;
  t.since_refresh <- 0;
  t.since_clear <- 0;
  match t.hook_rearm with
  | Some f -> f ~branches:t.branches ~rearms:t.rearms
  | None -> ()

let on_branch t ~pc ~taken =
  t.branches <- t.branches + 1;
  t.since_refresh <- t.since_refresh + 1;
  t.since_clear <- t.since_clear + 1;
  let verdict = Bbb.record t.bbb ~pc ~taken in
  (match verdict with
  | Bbb.Candidate -> let v = t.hdc - t.cfg.Config.hdc_dec in
    t.hdc <- (if v > 0 then v else 0)
  | Bbb.Non_candidate | Bbb.Dropped ->
    (* Int compare, not [Stdlib.min]: the polymorphic one is a real
       call on this per-branch path. *)
    let v = t.hdc + t.cfg.Config.hdc_inc in
    t.hdc <- (if v < t.hdc_max then v else t.hdc_max));
  if t.hdc = 0 then begin
    t.raw_detections <- t.raw_detections + 1;
    (match t.hook_detect with
    | Some f -> f ~branches:t.branches ~detections:t.raw_detections
    | None -> ());
    let entries = Bbb.snapshot_entries t.bbb in
    (if entries <> [] then
       if in_history t entries then t.history_hits <- t.history_hits + 1
       else begin
         let id = t.recorded_count in
         t.recorded_rev <-
           { id; detected_at = t.branches; entries } :: t.recorded_rev;
         t.recorded_count <- id + 1;
         match t.hook_record with
         | Some f -> f ~branches:t.branches ~id
         | None -> ()
       end);
    rearm t
  end
  else begin
    if t.since_refresh >= t.cfg.Config.refresh_interval then begin
      Bbb.refresh t.bbb;
      t.since_refresh <- 0
    end;
    if t.since_clear >= t.cfg.Config.clear_interval then rearm t
  end

let replay t events =
  Array.iter (fun (pc, taken) -> on_branch t ~pc ~taken) events

let snapshots t =
  let raws = List.rev t.recorded_rev in
  let rec build = function
    | [] -> []
    | [ r ] ->
      [ { Snapshot.id = r.id; detected_at = r.detected_at; ended_at = t.branches;
          branches = r.entries } ]
    | r :: (next :: _ as rest) ->
      { Snapshot.id = r.id; detected_at = r.detected_at;
        ended_at = next.detected_at; branches = r.entries }
      :: build rest
  in
  build raws

let branches_seen t = t.branches
let hdc_value t = t.hdc
let bbb_occupancy t = Bbb.occupancy t.bbb
let bbb_candidates t = Bbb.candidates t.bbb
let detections t = t.raw_detections
let recordings t = t.recorded_count
let rearms t = t.rearms
let history_suppressed t = t.history_hits
