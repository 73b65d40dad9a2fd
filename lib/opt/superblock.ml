module Instr = Vp_isa.Instr
module Pkg = Vp_package.Pkg

type stats = { merged : int; hoisted : int }

(* Package-internal predecessor counts of the live blocks. *)
let pred_counts (p : Pkg.t) =
  let counts = Array.make (Array.length p.Pkg.blocks) 0 in
  let bump j = if j >= 0 then counts.(j) <- counts.(j) + 1 in
  Array.iter
    (fun i ->
      let term = p.Pkg.blocks.(i).Pkg.term in
      bump (Pkg.first term);
      bump (Pkg.second term))
    p.Pkg.order;
  counts

(* Chain merging in one forward pass over [blocks], a private copy:
   each surviving block, in package order, absorbs the single-
   predecessor target of its unconditional transfer while it has one.
   A merge leaves every other block's predecessor count and terminator
   unchanged, so this makes the same merges as repeatedly merging the
   first eligible block in package order until none is left.  An
   absorbed block leaves [alive] and names its absorber in [owner]. *)
let merge_chains ~protected ~counts (blocks : Pkg.block array) order alive owner =
  let merged = ref 0 in
  let target i (term : Pkg.term) =
    match term with
    | Pkg.Fall j | Pkg.Goto j ->
      if
        j >= 0 && j <> i
        && (not blocks.(j).Pkg.is_exit)
        && (not blocks.(i).Pkg.is_exit)
        && counts.(j) = 1
        && not protected.(j)
      then j
      else -1
    | _ -> -1
  in
  Array.iter
    (fun i ->
      if alive.(i) then begin
        let b = blocks.(i) in
        (* Bodies are collected newest first and concatenated once; the
           last block absorbed gives the terminator. *)
        let rec grow (last : Pkg.block) weight bodies =
          let j = target i last.Pkg.term in
          if j >= 0 then begin
            alive.(j) <- false;
            owner.(j) <- i;
            incr merged;
            let bj = blocks.(j) in
            grow bj (Int.max weight bj.Pkg.weight) (bj.Pkg.body :: bodies)
          end
          else if bodies <> [] then
            blocks.(i) <-
              {
                b with
                Pkg.body = List.concat (b.Pkg.body :: List.rev bodies);
                term = last.Pkg.term;
                taken_prob = last.Pkg.taken_prob;
                weight;
              }
        in
        grow b b.Pkg.weight []
      end)
    order;
  !merged

(* Hoist the eligible pure prefix of each branch's single-predecessor
   fall-through successor above the branch, in place in [p]'s blocks,
   a private copy.  Every choice, branch by branch in [p]'s order, reads
   the bodies as merging left them; the moves apply afterwards. *)
let hoist ~protected ~counts ~max_hoist (p : Pkg.t) =
  let blocks = p.Pkg.blocks in
  let n = Array.length blocks in
  let live = Pkg_flow.live_in p in
  let hoisted = ref 0 in
  let moved = Array.make n 0 in
  let additions = Array.make n [] in
  Array.iter
    (fun a ->
      match blocks.(a).Pkg.term with
      | Pkg.Branch { src1; src2; taken; fall = j; _ } ->
        if
          j >= 0 && taken <> j
          && (not protected.(j))
          && moved.(j) = 0
          && counts.(j) = 1
          && not blocks.(j).Pkg.is_exit
        then begin
          let live_taken = if taken >= 0 then live.(taken) else 0 in
          let forbidden = live_taken lor Vp_isa.Reg.bit src1 lor Vp_isa.Reg.bit src2 in
          let rec prefix k acc = function
            | i :: rest
              when k < max_hoist && Pkg_flow.pure i && Instr.def_mask i land forbidden = 0 ->
              prefix (k + 1) (i :: acc) rest
            | _ -> (k, List.rev acc)
          in
          let k, up = prefix 0 [] blocks.(j).Pkg.body in
          if k > 0 then begin
            hoisted := !hoisted + k;
            moved.(j) <- k;
            additions.(a) <- up
          end
        end
      | _ -> ())
    p.Pkg.order;
  if !hoisted > 0 then
    for b = 0 to n - 1 do
      let rec drop k l = if k = 0 then l else drop (k - 1) (List.tl l) in
      if moved.(b) > 0 || additions.(b) <> [] then begin
        let blk = blocks.(b) in
        let body = drop moved.(b) blk.Pkg.body in
        let body = if additions.(b) = [] then body else body @ additions.(b) in
        blocks.(b) <- { blk with Pkg.body }
      end
    done;
  !hoisted

let form ?(protected = []) ?(max_hoist = 4) (p : Pkg.t) =
  let n = Array.length p.Pkg.blocks in
  let marks = Array.make n false in
  let mark i = if i >= 0 && i < n then marks.(i) <- true in
  List.iter (fun (i, _) -> mark i) p.Pkg.entries;
  List.iter mark protected;
  (* A merge moves the absorbed block's out-edges to its absorber and
     drops the edge between them, so every surviving block keeps its
     predecessor count. *)
  let counts = pred_counts p in
  let blocks = Array.copy p.Pkg.blocks and alive = Pkg.live p and owner = Array.init n Fun.id in
  let merged = merge_chains ~protected:marks ~counts blocks p.Pkg.order alive owner in
  let q =
    if merged = 0 then { p with Pkg.blocks }
    else
      (* A site of an absorbed block now lives in its absorber. *)
      let rec survivor i = if owner.(i) = i then i else survivor owner.(i) in
      {
        p with
        Pkg.blocks;
        order = Array.of_list (List.filter (fun i -> alive.(i)) (Array.to_list p.Pkg.order));
        sites =
          List.map
            (fun (s : Pkg.site) ->
              let i = s.Pkg.block in
              if i >= 0 && i < n && not alive.(i) then { s with Pkg.block = survivor i } else s)
            p.Pkg.sites;
      }
  in
  let hoisted = hoist ~protected:marks ~counts ~max_hoist q in
  ((if merged = 0 && hoisted = 0 then p else q), { merged; hoisted })
