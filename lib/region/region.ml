module Cfg = Vp_cfg.Cfg
module Image = Vp_prog.Image

(* Per-arc facts are arrays indexed by [Cfg.arc.id].  [version] counts
   temperature changes; [quiet] is {!Inference}'s stamp. *)
type mf = {
  name : string;
  cfg : Cfg.t;
  block_temp : Temperature.t array;
  block_weight : int array;
  block_taken_prob : float option array;
  arc_temps : Temperature.t array;
  arc_weights : int array;
  region_conflicts : int ref;
  mutable version : int;
  mutable quiet : int;
}

type t = {
  image : Image.t;
  snapshot : Vp_hsd.Snapshot.t;
  mutable order : mf array;  (* insertion order, [count] used *)
  mutable count : int;
  table : (string, mf) Hashtbl.t;
  conflict_count : int ref;
}

let create image snapshot =
  { image; snapshot; order = [||]; count = 0; table = Hashtbl.create 16;
    conflict_count = ref 0 }

let image t = t.image
let snapshot t = t.snapshot

let append t mf =
  if t.count = Array.length t.order then begin
    let order = Array.make (max 8 (2 * t.count)) mf in
    Array.blit t.order 0 order 0 t.count;
    t.order <- order
  end;
  t.order.(t.count) <- mf;
  t.count <- t.count + 1

let add_func t (sym : Image.sym) =
  match Hashtbl.find t.table sym.Image.name with
  | mf -> mf
  | exception Not_found ->
    let cfg = Vp_cfg.Cfg_memo.cfg t.image sym in
    let n = Cfg.num_blocks cfg in
    let m = Cfg.num_arcs cfg in
    let mf =
      {
        name = sym.Image.name;
        cfg;
        block_temp = Array.make n Temperature.Unknown;
        block_weight = Array.make n 0;
        block_taken_prob = Array.make n None;
        arc_temps = Array.make m Temperature.Unknown;
        arc_weights = Array.make m 0;
        region_conflicts = t.conflict_count;
        version = 0;
        quiet = -1;
      }
    in
    Hashtbl.replace t.table sym.Image.name mf;
    append t mf;
    mf

let find_func t name = Hashtbl.find_opt t.table name

let num_funcs t = t.count
let func t i = t.order.(i)

let funcs t = List.init t.count (fun i -> (t.order.(i).name, t.order.(i)))

let cfg mf = mf.cfg

let temp mf b = mf.block_temp.(b)

(* The refined temperature: [Unknown] never overwrites a known value,
   and on a Hot/Cold conflict [Hot] wins and the conflict counts.  A
   change is exactly a refined value different from the current one. *)
let refine current proposed conflicts =
  match (current, proposed) with
  | _, Temperature.Unknown -> current
  | Temperature.Unknown, t -> t
  | Temperature.Hot, Temperature.Hot | Temperature.Cold, Temperature.Cold ->
    current
  | Temperature.Hot, Temperature.Cold | Temperature.Cold, Temperature.Hot ->
    incr conflicts;
    Temperature.Hot

let set_temp mf b proposed =
  let current = mf.block_temp.(b) in
  let updated = refine current proposed mf.region_conflicts in
  mf.block_temp.(b) <- updated;
  let changed = not (Temperature.equal current updated) in
  if changed then mf.version <- mf.version + 1;
  changed

let force_hot mf b =
  mf.block_temp.(b) <- Temperature.Hot;
  mf.version <- mf.version + 1

let weight mf b = mf.block_weight.(b)

let add_weight mf b w = mf.block_weight.(b) <- mf.block_weight.(b) + w

let taken_prob mf b = mf.block_taken_prob.(b)

let set_taken_prob mf b p = mf.block_taken_prob.(b) <- Some p

let arc_temp mf (a : Cfg.arc) = mf.arc_temps.(a.Cfg.id)

let set_arc_temp mf (a : Cfg.arc) proposed =
  let current = mf.arc_temps.(a.Cfg.id) in
  let updated = refine current proposed mf.region_conflicts in
  mf.arc_temps.(a.Cfg.id) <- updated;
  let changed = not (Temperature.equal current updated) in
  if changed then mf.version <- mf.version + 1;
  changed

let force_hot_arc mf (a : Cfg.arc) =
  mf.arc_temps.(a.Cfg.id) <- Temperature.Hot;
  mf.version <- mf.version + 1

let version mf = mf.version
let quiet mf = mf.quiet
let set_quiet mf stamp = mf.quiet <- stamp

let arc_weight mf (a : Cfg.arc) = mf.arc_weights.(a.Cfg.id)

let set_arc_weight mf (a : Cfg.arc) w = mf.arc_weights.(a.Cfg.id) <- w

let hot_blocks mf =
  let acc = ref [] in
  for b = Array.length mf.block_temp - 1 downto 0 do
    if Temperature.is_hot mf.block_temp.(b) then acc := b :: !acc
  done;
  !acc

let exit_arcs mf =
  let acc = ref [] in
  for id = Cfg.num_arcs mf.cfg - 1 downto 0 do
    let a = Cfg.arc mf.cfg id in
    if
      Temperature.is_hot mf.block_temp.(a.Cfg.src)
      && not
           (Temperature.is_hot mf.arc_temps.(id)
           && Temperature.is_hot mf.block_temp.(a.Cfg.dst))
    then acc := a :: !acc
  done;
  !acc

let selected_instructions t =
  let total = ref 0 in
  for i = 0 to t.count - 1 do
    let mf = t.order.(i) in
    for b = 0 to Cfg.num_blocks mf.cfg - 1 do
      if Temperature.is_hot mf.block_temp.(b) then total := !total + Cfg.len mf.cfg b
    done
  done;
  !total

let conflicts t = !(t.conflict_count)
