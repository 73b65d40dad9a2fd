module Instr = Vp_isa.Instr
module Image = Vp_prog.Image

type arc_kind = Taken | Fallthrough

type arc = { id : int; src : int; dst : int; kind : arc_kind; back : bool }

type ending = Straight | Jump | Branch | Call | Return | Halt

(* Arcs live in one array indexed by id.  A block's out-arcs are the
   contiguous ids [succ_lo.(b) .. succ_lo.(b + 1) - 1]; its in-arcs are
   [pred_ids.(pred_lo.(b) .. pred_lo.(b + 1) - 1)], ascending.  The
   list views are built once at recovery. *)
type t = {
  sym : Image.sym;
  image : Image.t;
  starts : int array;
  lens : int array;
  endings : ending array;
  arc_table : arc array;
  succ_lo : int array;
  pred_lo : int array;
  pred_ids : int array;
  succs : arc list array;
  preds : arc list array;
  calls : (int * int) list;
  callees : (int * Image.sym) array;
  back : (int * int) list;
}

let sym t = t.sym
let image t = t.image
let num_blocks t = Array.length t.starts
let entry _ = 0
let start t b = t.starts.(b)
let len t b = t.lens.(b)

let block_at t addr =
  let n = num_blocks t in
  let rec bsearch lo hi =
    if lo > hi then None
    else
      let mid = (lo + hi) / 2 in
      if addr < t.starts.(mid) then bsearch lo (mid - 1)
      else if addr >= t.starts.(mid) + t.lens.(mid) then bsearch (mid + 1) hi
      else Some mid
  in
  bsearch 0 (n - 1)

let instrs t b =
  List.init t.lens.(b) (fun i -> Image.fetch t.image (t.starts.(b) + i))

let terminator t b =
  match t.endings.(b) with
  | Straight -> None
  | Jump | Branch | Call | Return | Halt ->
    Some (Image.fetch t.image (t.starts.(b) + t.lens.(b) - 1))

let ending t b = t.endings.(b)

let branch_addr t b =
  match t.endings.(b) with
  | Branch -> Some (t.starts.(b) + t.lens.(b) - 1)
  | Straight | Jump | Call | Return | Halt -> None

let succs t b = t.succs.(b)
let preds t b = t.preds.(b)
let arcs t = Array.to_list t.arc_table

let num_arcs t = Array.length t.arc_table
let arc t id = t.arc_table.(id)
let out_degree t b = t.succ_lo.(b + 1) - t.succ_lo.(b)
let succ t b k = t.arc_table.(t.succ_lo.(b) + k)
let in_degree t b = t.pred_lo.(b + 1) - t.pred_lo.(b)
let pred t b k = t.arc_table.(t.pred_ids.(t.pred_lo.(b) + k))

let call_sites t = t.calls
let callees t = t.callees

let back_edges t = t.back

let preds_ignoring_back_edges t b =
  List.filter (fun (a : arc) -> not a.back) t.preds.(b)

let ending_of = function
  | Instr.Br _ -> Branch
  | Instr.Jmp _ -> Jump
  | Instr.Call _ -> Call
  | Instr.Ret -> Return
  | Instr.Halt -> Halt
  | Instr.Alu _ | Instr.Li _ | Instr.La _ | Instr.Load _ | Instr.Store _
  | Instr.Nop ->
    Straight

(* Depth-first search from the entry over the out-arc ranges, marking
   the arcs into a block currently on the DFS stack.  Returns those
   arcs' ids in discovery order. *)
let dfs_back_ids n succ_lo dsts =
  let state = Array.make n `White in
  let back = ref [] in
  let rec dfs b =
    state.(b) <- `Grey;
    for id = succ_lo.(b) to succ_lo.(b + 1) - 1 do
      match state.(dsts.(id)) with
      | `Grey -> back := id :: !back
      | `White -> dfs dsts.(id)
      | `Black -> ()
    done;
    state.(b) <- `Black
  in
  if n > 0 then dfs 0;
  List.rev !back

let recover image (s : Image.sym) =
  let lo = s.Image.start in
  let hi = lo + s.Image.len in
  let in_func a = a >= lo && a < hi in
  (* Pass 1: leaders. *)
  let leaders = Hashtbl.create 64 in
  Hashtbl.replace leaders lo ();
  for addr = lo to hi - 1 do
    let i = Image.fetch image addr in
    (match i with
    | Instr.Br { target = Instr.Addr a; _ } | Instr.Jmp { target = Instr.Addr a } ->
      if in_func a then Hashtbl.replace leaders a ()
    | _ -> ());
    if Instr.is_control i && addr + 1 < hi then Hashtbl.replace leaders (addr + 1) ()
  done;
  let starts =
    Hashtbl.fold (fun a () acc -> a :: acc) leaders [] |> List.sort compare |> Array.of_list
  in
  let n = Array.length starts in
  let lens =
    Array.init n (fun b ->
        let next = if b + 1 < n then starts.(b + 1) else hi in
        next - starts.(b))
  in
  let id_of_addr = Hashtbl.create 64 in
  Array.iteri (fun b a -> Hashtbl.replace id_of_addr a b) starts;
  let block_of a = Hashtbl.find_opt id_of_addr a in
  let lasts = Array.init n (fun b -> Image.fetch image (starts.(b) + lens.(b) - 1)) in
  (* Pass 2: arcs (ids in creation order, block by block) and calls. *)
  let raw = ref [] in
  let m = ref 0 in
  let succ_lo = Array.make (n + 1) 0 in
  let calls = ref [] in
  let add_arc src dst kind =
    raw := (src, dst, kind) :: !raw;
    incr m
  in
  for b = 0 to n - 1 do
    succ_lo.(b) <- !m;
    let fallthrough () =
      if b + 1 < n then add_arc b (b + 1) Fallthrough
    in
    match lasts.(b) with
    | Instr.Br { target = Instr.Addr a; _ } ->
      (match block_of a with Some d -> add_arc b d Taken | None -> ());
      fallthrough ()
    | Instr.Jmp { target = Instr.Addr a } ->
      (match block_of a with Some d -> add_arc b d Taken | None -> ())
    | Instr.Call { target = Instr.Addr a } ->
      calls := (b, a) :: !calls;
      fallthrough ()
    | Instr.Ret | Instr.Halt -> ()
    | Instr.Br _ | Instr.Jmp _ | Instr.Call _ ->
      Vp_util.Error.failf ~stage:"cfg" "recover: unresolved label in image"
    | Instr.Alu _ | Instr.Li _ | Instr.La _ | Instr.Load _ | Instr.Store _
    | Instr.Nop ->
      fallthrough ()
  done;
  let raw = Array.of_list (List.rev !raw) in
  let m = !m in
  succ_lo.(n) <- m;
  let srcs = Array.map (fun (src, _, _) -> src) raw in
  let dsts = Array.map (fun (_, dst, _) -> dst) raw in
  let back_ids = dfs_back_ids n succ_lo dsts in
  let back = List.map (fun id -> (srcs.(id), dsts.(id))) back_ids in
  (* An arc's pair is in [back] exactly when the DFS marked the arc
     itself: two arcs with one pair (a branch whose target is its own
     fall-through) are classified alike, since the destination is
     still grey at the second arc if it was at the first, and has been
     finished if it was white. *)
  let hit = Array.make m false in
  List.iter (fun id -> hit.(id) <- true) back_ids;
  let arc_table =
    Array.mapi (fun id (src, dst, kind) -> { id; src; dst; kind; back = hit.(id) }) raw
  in
  (* In-arcs grouped by destination, ascending id within a group. *)
  let pred_lo = Array.make (n + 1) 0 in
  Array.iter (fun dst -> pred_lo.(dst + 1) <- pred_lo.(dst + 1) + 1) dsts;
  for b = 0 to n - 1 do
    pred_lo.(b + 1) <- pred_lo.(b + 1) + pred_lo.(b)
  done;
  let fill = Array.sub pred_lo 0 n in
  let pred_ids = Array.make m 0 in
  Array.iteri
    (fun id dst ->
      pred_ids.(fill.(dst)) <- id;
      fill.(dst) <- fill.(dst) + 1)
    dsts;
  let succs =
    Array.init n (fun b ->
        List.init (succ_lo.(b + 1) - succ_lo.(b)) (fun k ->
            arc_table.(succ_lo.(b) + k)))
  in
  let preds =
    Array.init n (fun b ->
        List.init (pred_lo.(b + 1) - pred_lo.(b)) (fun k ->
            arc_table.(pred_ids.(pred_lo.(b) + k))))
  in
  let calls = List.rev !calls in
  let callees =
    List.filter_map
      (fun (b, a) -> Option.map (fun callee -> (b, callee)) (Image.sym_at image a))
      calls
    |> Array.of_list
  in
  {
    sym = s;
    image;
    starts;
    lens;
    endings = Array.map ending_of lasts;
    arc_table;
    succ_lo;
    pred_lo;
    pred_ids;
    succs;
    preds;
    calls;
    callees;
    back;
  }
