module Instr = Vp_isa.Instr
module Pkg = Vp_package.Pkg

type stats = { merged : int; hoisted : int }

(* Package-internal predecessor counts of the live blocks. *)
let pred_counts (idx : Pkg_flow.t) =
  let counts = Array.make (Pkg_flow.size idx) 0 in
  let bump j = if j >= 0 then counts.(j) <- counts.(j) + 1 in
  Array.iteri
    (fun i alive ->
      if alive then begin
        bump idx.first.(i);
        bump idx.second.(i)
      end)
    idx.alive;
  counts

(* Chain merging in one forward pass: each surviving block, in package
   order, absorbs the single-predecessor target of its unconditional
   transfer while it has one.  A merge leaves every other block's
   predecessor count and terminator unchanged, so this makes the same
   merges as repeatedly merging the first eligible block in package
   order until none is left. *)
let merge_chains ~protected ~counts (idx : Pkg_flow.t) =
  let merged = ref 0 in
  let target i =
    match idx.term.(i) with
    | Pkg.Fall _ | Pkg.Goto _ ->
      let j = idx.first.(i) in
      if
        j >= 0 && j <> i
        && (not (Pkg_flow.is_exit idx j))
        && (not (Pkg_flow.is_exit idx i))
        && counts.(j) = 1
        && not protected.(j)
      then j
      else -1
    | _ -> -1
  in
  for i = 0 to Pkg_flow.size idx - 1 do
    if idx.alive.(i) then begin
      (* Bodies are collected newest first and concatenated once. *)
      let rec grow bodies =
        let j = target i in
        if j >= 0 then begin
          idx.alive.(j) <- false;
          idx.owner.(j) <- i;
          incr merged;
          idx.term.(i) <- idx.term.(j);
          idx.first.(i) <- idx.first.(j);
          idx.second.(i) <- idx.second.(j);
          idx.taken_prob.(i) <- idx.taken_prob.(j);
          idx.weight.(i) <- Int.max idx.weight.(i) idx.weight.(j);
          grow (idx.body.(j) :: bodies)
        end
        else if bodies <> [] then
          idx.body.(i) <- List.concat (idx.body.(i) :: List.rev bodies)
      in
      grow []
    end
  done;
  !merged

(* Hoist the eligible pure prefix of each branch's single-predecessor
   fall-through successor above the branch.  Every choice reads the
   bodies as merging left them; the moves apply afterwards. *)
let hoist ~protected ~counts ~max_hoist (idx : Pkg_flow.t) =
  let n = Pkg_flow.size idx in
  let live = Pkg_flow.live_in idx in
  let hoisted = ref 0 in
  let moved = Array.make n 0 in
  let additions = Array.make n [] in
  for a = 0 to n - 1 do
    if idx.alive.(a) then
      match idx.term.(a) with
      | Pkg.Branch { src1; src2; _ } ->
        let taken = idx.first.(a) and j = idx.second.(a) in
        if
          j >= 0 && taken <> j
          && (not protected.(j))
          && moved.(j) = 0
          && counts.(j) = 1
          && not (Pkg_flow.is_exit idx j)
        then begin
          let live_taken = if taken >= 0 then live.(taken) else 0 in
          let forbidden = live_taken lor Vp_isa.Reg.bit src1 lor Vp_isa.Reg.bit src2 in
          let rec prefix k acc = function
            | i :: rest
              when k < max_hoist && Pkg_flow.pure i && Instr.def_mask i land forbidden = 0 ->
              prefix (k + 1) (i :: acc) rest
            | _ -> (k, List.rev acc)
          in
          let k, p = prefix 0 [] idx.body.(j) in
          if k > 0 then begin
            hoisted := !hoisted + k;
            moved.(j) <- k;
            additions.(a) <- p
          end
        end
      | _ -> ()
  done;
  if !hoisted > 0 then
    for b = 0 to n - 1 do
      let rec drop k l = if k = 0 then l else drop (k - 1) (List.tl l) in
      if moved.(b) > 0 then idx.body.(b) <- drop moved.(b) idx.body.(b);
      if additions.(b) <> [] then idx.body.(b) <- idx.body.(b) @ additions.(b)
    done;
  !hoisted

let form ~protected ?(max_hoist = 4) (idx : Pkg_flow.t) =
  let protected = Pkg_flow.marks idx (List.map fst idx.pkg.Pkg.entries @ protected) in
  (* A merge moves the absorbed block's out-edges to its absorber and
     drops the edge between them, so every surviving block keeps its
     predecessor count. *)
  let counts = pred_counts idx in
  let merged = merge_chains ~protected ~counts idx in
  let hoisted = hoist ~protected ~counts ~max_hoist idx in
  { merged; hoisted }

let run ?(protected = []) ?max_hoist (pkg : Pkg.t) =
  let idx = Pkg_flow.of_pkg pkg in
  let stats = form ~protected ?max_hoist idx in
  (Pkg_flow.to_pkg idx, stats)
