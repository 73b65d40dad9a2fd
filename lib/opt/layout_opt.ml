module Pkg = Vp_package.Pkg
module Op = Vp_isa.Op

let flip ~threshold (p : Pkg.t) =
  let blocks =
    Array.map
      (fun (b : Pkg.block) ->
        match (b.Pkg.term, b.Pkg.taken_prob) with
        | Pkg.Branch { cond; src1; src2; taken; fall }, Some q when q > threshold ->
          let cond = Op.negate_cond cond in
          {
            b with
            Pkg.term = Pkg.Branch { cond; src1; src2; taken = fall; fall = taken };
            taken_prob = Some (1.0 -. q);
          }
        | _ -> b)
      p.Pkg.blocks
  in
  { p with Pkg.blocks }

(* Hot chains over the live blocks.  [weight.(i)] is block [i]'s weight
   and [arc i j] the flow from [i] to [j]. *)
let order ~weight ~arc (p : Pkg.t) =
  let blocks = p.Pkg.blocks and live = p.Pkg.order in
  let n = Array.length blocks in
  let alive = Pkg.live p in
  let is_exit i = blocks.(i).Pkg.is_exit in
  let placed = Array.make n false in
  let order = Array.make (Array.length live) 0 in
  let k = ref 0 in
  let place b =
    placed.(b) <- true;
    order.(!k) <- b;
    incr k
  in
  let open_ s = s >= 0 && alive.(s) && (not placed.(s)) && not (is_exit s) in
  (* Chain from a seed: keep appending the heaviest unplaced successor,
     a branch's fall-through first on equal flow. *)
  let rec chain b =
    place b;
    let a, c =
      match blocks.(b).Pkg.term with
      | Pkg.Branch { taken; fall; _ } -> (fall, taken)
      | term -> (Pkg.first term, -1)
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
      (fun (i, _) -> if i >= 0 && i < n && alive.(i) then Some i else None)
      p.Pkg.entries
  in
  List.iter (fun b -> if not placed.(b) then chain b) (List.stable_sort heavier entries);
  let hottest = Array.copy live in
  Array.stable_sort heavier hottest;
  Array.iter (fun b -> if (not placed.(b)) && not (is_exit b) then chain b) hottest;
  (* Exit blocks sink to the bottom, in package order. *)
  Array.iter (fun b -> if not placed.(b) then place b) live;
  order

let relayout ?(threshold = 0.5) p =
  let p = flip ~threshold p in
  let w = Weights.estimate p in
  { p with Pkg.order = order p ~weight:(Weights.weights w) ~arc:(Weights.arc_at w) }
