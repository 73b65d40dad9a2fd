module Image = Vp_prog.Image

type entry = { cfg : Cfg.t; mutable live : Liveness.t option }

let memo : (Image.t, (string, entry) Hashtbl.t) Vp_util.Identity_memo.t =
  Vp_util.Identity_memo.create ()

let table image =
  Vp_util.Identity_memo.find_or_add memo image (fun _ -> Hashtbl.create 16)

let cfg image (sym : Image.sym) =
  let table = table image in
  match Hashtbl.find table sym.Image.name with
  | e -> e.cfg
  | exception Not_found ->
    let cfg = Cfg.recover image sym in
    Hashtbl.add table sym.Image.name { cfg; live = None };
    cfg

let liveness cfg =
  match Hashtbl.find (table (Cfg.image cfg)) (Cfg.sym cfg).Image.name with
  | e when e.cfg == cfg -> (
    match e.live with
    | Some live -> live
    | None ->
      let live = Liveness.compute cfg in
      e.live <- Some live;
      live)
  | _ | (exception Not_found) -> Liveness.compute cfg
