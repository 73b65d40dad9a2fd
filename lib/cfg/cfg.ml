module Instr = Vp_isa.Instr
module Image = Vp_prog.Image

type arc_kind = Taken | Fallthrough

type arc = { src : int; dst : int; kind : arc_kind }

type t = {
  sym : Image.sym;
  image : Image.t;
  starts : int array;
  lens : int array;
  succs : arc list array;
  preds : arc list array;
  calls : (int * int) list;
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
  let last = Image.fetch t.image (t.starts.(b) + t.lens.(b) - 1) in
  if Instr.is_control last then Some last else None

let branch_addr t b =
  match terminator t b with
  | Some (Instr.Br _) -> Some (t.starts.(b) + t.lens.(b) - 1)
  | _ -> None

let succs t b = t.succs.(b)
let preds t b = t.preds.(b)

let arcs t =
  Array.to_list t.succs |> List.concat

let call_sites t = t.calls

let back_edges t = t.back

let preds_ignoring_back_edges t b =
  List.filter (fun a -> not (List.mem (a.src, a.dst) t.back)) t.preds.(b)

(* Depth-first search from the entry, classifying back edges (an arc
   into a block currently on the DFS stack). *)
let compute_back_edges starts succs =
  let n = Array.length starts in
  let state = Array.make n `White in
  let back = ref [] in
  let rec dfs b =
    state.(b) <- `Grey;
    List.iter
      (fun a ->
        match state.(a.dst) with
        | `Grey -> back := (a.src, a.dst) :: !back
        | `White -> dfs a.dst
        | `Black -> ())
      succs.(b);
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
  (* Pass 2: arcs and calls. *)
  let succs = Array.make n [] in
  let preds = Array.make n [] in
  let calls = ref [] in
  let add_arc src dst kind =
    let a = { src; dst; kind } in
    succs.(src) <- succs.(src) @ [ a ];
    preds.(dst) <- preds.(dst) @ [ a ]
  in
  for b = 0 to n - 1 do
    let last_addr = starts.(b) + lens.(b) - 1 in
    let last = Image.fetch image last_addr in
    let fallthrough () =
      if b + 1 < n then add_arc b (b + 1) Fallthrough
    in
    match last with
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
  let back = compute_back_edges starts succs in
  { sym = s; image; starts; lens; succs; preds; calls = List.rev !calls; back }
