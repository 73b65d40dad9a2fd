module Cfg = Vp_cfg.Cfg
module Image = Vp_prog.Image

type arc_key = int * int * Cfg.arc_kind

let key_of (a : Cfg.arc) : arc_key = (a.Cfg.src, a.Cfg.dst, a.Cfg.kind)

type mf = {
  cfg : Cfg.t;
  block_temp : Temperature.t array;
  block_weight : int array;
  block_taken_prob : float option array;
  arc_temps : (arc_key, Temperature.t) Hashtbl.t;
  arc_weights : (arc_key, int) Hashtbl.t;
  region_conflicts : int ref;
}

type t = {
  image : Image.t;
  snapshot : Vp_hsd.Snapshot.t;
  mutable order : string list;  (* reversed insertion order *)
  table : (string, mf) Hashtbl.t;
  conflict_count : int ref;
}

let create image snapshot =
  { image; snapshot; order = []; table = Hashtbl.create 16; conflict_count = ref 0 }

let image t = t.image
let snapshot t = t.snapshot

let add_func t name =
  match Hashtbl.find_opt t.table name with
  | Some mf -> mf
  | None ->
    let sym =
      match Image.find_sym t.image name with
      | Some s -> s
      | None -> Vp_util.Error.failf ~stage:"region" ~label:name "add_func: unknown symbol %s" name
    in
    let cfg = Cfg.recover t.image sym in
    let n = Cfg.num_blocks cfg in
    let mf =
      {
        cfg;
        block_temp = Array.make n Temperature.Unknown;
        block_weight = Array.make n 0;
        block_taken_prob = Array.make n None;
        arc_temps = Hashtbl.create 32;
        arc_weights = Hashtbl.create 32;
        region_conflicts = t.conflict_count;
      }
    in
    Hashtbl.replace t.table name mf;
    t.order <- name :: t.order;
    mf

let find_func t name = Hashtbl.find_opt t.table name

let funcs t =
  List.rev_map (fun name -> (name, Hashtbl.find t.table name)) t.order

let cfg mf = mf.cfg

let temp mf b = mf.block_temp.(b)

let refine current proposed conflicts =
  match (current, proposed) with
  | _, Temperature.Unknown -> (current, false)
  | Temperature.Unknown, t -> (t, true)
  | Temperature.Hot, Temperature.Hot | Temperature.Cold, Temperature.Cold ->
    (current, false)
  | Temperature.Hot, Temperature.Cold ->
    incr conflicts;
    (Temperature.Hot, false)
  | Temperature.Cold, Temperature.Hot ->
    incr conflicts;
    (Temperature.Hot, true)

let set_temp mf b proposed =
  let updated, changed = refine mf.block_temp.(b) proposed mf.region_conflicts in
  mf.block_temp.(b) <- updated;
  changed

let force_hot mf b = mf.block_temp.(b) <- Temperature.Hot

let weight mf b = mf.block_weight.(b)

let add_weight mf b w = mf.block_weight.(b) <- mf.block_weight.(b) + w

let taken_prob mf b = mf.block_taken_prob.(b)

let set_taken_prob mf b p = mf.block_taken_prob.(b) <- Some p

let arc_temp mf a =
  Option.value ~default:Temperature.Unknown (Hashtbl.find_opt mf.arc_temps (key_of a))

let set_arc_temp mf a proposed =
  let current = arc_temp mf a in
  let updated, changed = refine current proposed mf.region_conflicts in
  if changed || not (Temperature.equal current updated) then
    Hashtbl.replace mf.arc_temps (key_of a) updated;
  changed

let force_hot_arc mf a = Hashtbl.replace mf.arc_temps (key_of a) Temperature.Hot

let arc_weight mf a =
  Option.value ~default:0 (Hashtbl.find_opt mf.arc_weights (key_of a))

let set_arc_weight mf a w = Hashtbl.replace mf.arc_weights (key_of a) w

let hot_blocks mf =
  List.filter
    (fun b -> Temperature.is_hot mf.block_temp.(b))
    (List.init (Cfg.num_blocks mf.cfg) Fun.id)

let exit_arcs mf =
  List.filter
    (fun (a : Cfg.arc) ->
      Temperature.is_hot mf.block_temp.(a.Cfg.src)
      && not
           (Temperature.is_hot (arc_temp mf a)
           && Temperature.is_hot mf.block_temp.(a.Cfg.dst)))
    (Cfg.arcs mf.cfg)

let hot_call_sites mf =
  List.filter (fun (b, _) -> Temperature.is_hot mf.block_temp.(b)) (Cfg.call_sites mf.cfg)

let selected_instructions t =
  List.fold_left
    (fun acc (_, mf) ->
      List.fold_left (fun acc b -> acc + Cfg.len mf.cfg b) acc (hot_blocks mf))
    0 (funcs t)

let conflicts t = !(t.conflict_count)
