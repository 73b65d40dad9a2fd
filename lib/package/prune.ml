module Cfg = Vp_cfg.Cfg
module Liveness = Vp_cfg.Liveness
module Region = Vp_region.Region
module T = Vp_region.Temperature

type view = {
  mf : Region.mf;
  live : Liveness.t;
  hot : bool array;  (* block -> hot *)
}

let view mf =
  let cfg = Region.cfg mf in
  let hot = Array.init (Cfg.num_blocks cfg) (fun b -> T.is_hot (Region.temp mf b)) in
  { mf; live = Vp_cfg.Cfg_memo.liveness cfg; hot }

let mf v = v.mf
let cfg v = Region.cfg v.mf

(* Ascending blocks of [v] that satisfy [keep]. *)
let blocks_where v keep =
  let acc = ref [] in
  for b = Array.length v.hot - 1 downto 0 do
    if keep v b then acc := b :: !acc
  done;
  !acc

let hot_blocks v = blocks_where v (fun v b -> v.hot.(b))

let arc_internal v (a : Cfg.arc) =
  v.hot.(a.Cfg.src) && v.hot.(a.Cfg.dst)
  && T.is_hot (Region.arc_temp v.mf a)

(* The out-arcs of [b] whose internality is [internal], in succs
   order. *)
let succs_where v b internal =
  let c = cfg v in
  let acc = ref [] in
  for k = Cfg.out_degree c b - 1 downto 0 do
    let a = Cfg.succ c b k in
    if arc_internal v a = internal then acc := a :: !acc
  done;
  !acc

let internal_succs v b = succs_where v b true

let exit_arcs_of v b = if not v.hot.(b) then [] else succs_where v b false

(* Some non-back-edge in-arc of [b] is internal. *)
let has_internal_forward_pred v b =
  let c = cfg v in
  let found = ref false in
  for k = 0 to Cfg.in_degree c b - 1 do
    let a = Cfg.pred c b k in
    if (not a.Cfg.back) && arc_internal v a then found := true
  done;
  !found

let entry_blocks v =
  blocks_where v (fun v b -> v.hot.(b) && not (has_internal_forward_pred v b))

(* Hot blocks reachable from the function entry through internal
   arcs (none when the entry is not hot). *)
let reached_from_prologue v =
  let c = cfg v in
  let seen = Array.make (Cfg.num_blocks c) false in
  let rec dfs b =
    if not seen.(b) then begin
      seen.(b) <- true;
      for k = 0 to Cfg.out_degree c b - 1 do
        let a = Cfg.succ c b k in
        if arc_internal v a then dfs a.Cfg.dst
      done
    end
  in
  if v.hot.(Cfg.entry c) then dfs (Cfg.entry c);
  seen

let reachable_from_prologue v =
  let seen = reached_from_prologue v in
  blocks_where v (fun _ b -> seen.(b))

let inlinable v =
  v.hot.(Cfg.entry (cfg v))
  &&
  let seen = reached_from_prologue v in
  let c = cfg v in
  let found = ref false in
  for b = 0 to Cfg.num_blocks c - 1 do
    match Cfg.ending c b with
    | Cfg.Return -> if seen.(b) then found := true
    | Cfg.Straight | Cfg.Jump | Cfg.Branch | Cfg.Call | Cfg.Halt -> ()
  done;
  !found

let live_across v a = Liveness.live_across v.live a
