module Pkg = Vp_package.Pkg
module Op = Vp_isa.Op

let flip ~threshold (idx : Pkg_flow.t) =
  for i = 0 to Pkg_flow.size idx - 1 do
    match (idx.term.(i), idx.taken_prob.(i)) with
    | Pkg.Branch { cond; src1; src2; taken; fall }, Some p when p > threshold ->
      idx.term.(i) <-
        Pkg.Branch { cond = Op.negate_cond cond; src1; src2; taken = fall; fall = taken };
      idx.taken_prob.(i) <- Some (1.0 -. p);
      let s = idx.first.(i) in
      idx.first.(i) <- idx.second.(i);
      idx.second.(i) <- s
    | _ -> ()
  done

(* Hot chains over the live blocks.  [weight.(i)] is block [i]'s weight
   and [arc i j] the flow from [i] to [j]. *)
let order ~weight ~arc (idx : Pkg_flow.t) =
  let n = Pkg_flow.size idx in
  let live = Array.make (Array.fold_left (fun k a -> if a then k + 1 else k) 0 idx.alive) 0 in
  let m = ref 0 in
  Array.iteri
    (fun i a ->
      if a then begin
        live.(!m) <- i;
        incr m
      end)
    idx.alive;
  let placed = Array.make n false in
  let order = Array.make (Array.length live) 0 in
  let k = ref 0 in
  let place b =
    placed.(b) <- true;
    order.(!k) <- b;
    incr k
  in
  let open_ s = s >= 0 && idx.alive.(s) && (not placed.(s)) && not (Pkg_flow.is_exit idx s) in
  (* Chain from a seed: keep appending the heaviest unplaced successor,
     a branch's fall-through first on equal flow. *)
  let rec chain b =
    place b;
    let a, c =
      match idx.term.(b) with
      | Pkg.Branch _ -> (idx.second.(b), idx.first.(b))
      | _ -> (idx.first.(b), -1)
    in
    match (open_ a, open_ c) with
    | true, true -> chain (if arc b c > arc b a then c else a)
    | true, false -> chain a
    | false, true -> chain c
    | false, false -> ()
  in
  let heavier a b = Float.compare weight.(b) weight.(a) in
  (* Seeds: entries first (hottest entry first), then remaining hot
     blocks by weight. *)
  let entries =
    List.filter_map
      (fun (l, _) ->
        let i = Pkg_flow.find idx l in
        if i >= 0 && idx.alive.(i) then Some i else None)
      idx.pkg.Pkg.entries
  in
  List.iter (fun b -> if not placed.(b) then chain b) (List.stable_sort heavier entries);
  let hottest = Array.copy live in
  Array.stable_sort heavier hottest;
  Array.iter (fun b -> if (not placed.(b)) && not (Pkg_flow.is_exit idx b) then chain b) hottest;
  (* Exit blocks sink to the bottom, in package order. *)
  Array.iter (fun b -> if not placed.(b) then place b) live;
  idx.order <- order

let flip_branches ?(threshold = 0.5) pkg =
  let idx = Pkg_flow.of_pkg pkg in
  flip ~threshold idx;
  Pkg_flow.to_pkg idx

let order_blocks weights pkg =
  let idx = Pkg_flow.of_pkg pkg in
  let label = Pkg_flow.label idx in
  order idx
    ~weight:(Array.init (Pkg_flow.size idx) (fun i -> Weights.block weights (label i)))
    ~arc:(fun i j -> Weights.arc weights (label i) (label j));
  Pkg_flow.to_pkg idx

let relayout ~threshold idx =
  flip ~threshold idx;
  let w = Weights.of_index idx in
  order idx ~weight:(Weights.weights w) ~arc:(Weights.arc_at w)

let run pkg =
  let idx = Pkg_flow.of_pkg pkg in
  relayout ~threshold:0.5 idx;
  Pkg_flow.to_pkg idx
