module Instr = Vp_isa.Instr
module Pkg = Vp_package.Pkg

type stats = { merged : int; hoisted : int }

(* Package-internal predecessor counts by block position. *)
let pred_counts index (blocks : Pkg.block array) =
  let counts = Array.make (Array.length blocks) 0 in
  Array.iter
    (fun (b : Pkg.block) ->
      List.iter
        (fun l ->
          match Hashtbl.find_opt index l with
          | Some j -> counts.(j) <- counts.(j) + 1
          | None -> ())
        (Pkg_flow.succ_labels b.Pkg.term))
    blocks;
  counts

let set_of labels =
  let set = Hashtbl.create 16 in
  List.iter (fun l -> Hashtbl.replace set l ()) labels;
  set

(* Chain merging in one forward pass: each surviving block, in list
   order, absorbs the single-predecessor target of its unconditional
   transfer while it has one.  A merge leaves every other block's
   predecessor count and terminator unchanged, so this makes the same
   merges as repeatedly merging the first eligible block in list order
   until none is left.  Returns the surviving blocks, the merge count
   and the absorbed -> absorber renames. *)
let merge_chains ~protected (pkg : Pkg.t) =
  let blocks = Array.of_list pkg.Pkg.blocks in
  let index = Pkg_flow.index blocks in
  let counts = pred_counts index blocks in
  let absorbed = Array.make (Array.length blocks) false in
  let merged = ref 0 in
  let renames = Hashtbl.create 8 in
  let target (a : Pkg.block) =
    match a.Pkg.term with
    | Pkg.Fall l | Pkg.Goto l -> (
      match Hashtbl.find_opt index l with
      | Some j
        when (not blocks.(j).Pkg.is_exit)
             && (not a.Pkg.is_exit)
             && l <> a.Pkg.label
             && counts.(j) = 1
             && not (Hashtbl.mem protected l) ->
        Some j
      | _ -> None)
    | _ -> None
  in
  Array.iteri
    (fun i (head : Pkg.block) ->
      if not absorbed.(i) then begin
        (* Bodies are collected newest first and concatenated once. *)
        let rec grow (a : Pkg.block) bodies =
          match (target a, bodies) with
          | None, [] -> a
          | None, _ -> { a with Pkg.body = List.concat (a.Pkg.body :: List.rev bodies) }
          | Some j, _ ->
            let b = blocks.(j) in
            absorbed.(j) <- true;
            incr merged;
            Hashtbl.replace renames b.Pkg.label head.Pkg.label;
            grow
              {
                a with
                Pkg.term = b.Pkg.term;
                taken_prob = b.Pkg.taken_prob;
                weight = max a.Pkg.weight b.Pkg.weight;
              }
              (b.Pkg.body :: bodies)
        in
        blocks.(i) <- grow head []
      end)
    blocks;
  (List.filteri (fun i _ -> not absorbed.(i)) (Array.to_list blocks), !merged, renames)

(* Hoist the eligible pure prefix of each branch's single-predecessor
   fall-through successor above the branch. *)
let hoist ~protected ~max_hoist (pkg : Pkg.t) =
  let live = Sink.live_in pkg in
  let blocks = Array.of_list pkg.Pkg.blocks in
  let index = Pkg_flow.index blocks in
  let counts = pred_counts index blocks in
  let hoisted = ref 0 in
  (* Per-target prefix removals, applied in one rebuild pass. *)
  let moved : (string, Instr.t list) Hashtbl.t = Hashtbl.create 8 in
  let additions : (string, Instr.t list) Hashtbl.t = Hashtbl.create 8 in
  Array.iter
    (fun (a : Pkg.block) ->
      match a.Pkg.term with
      | Pkg.Branch { taken; fall; src1; src2; _ }
        when taken <> fall
             && (not (Hashtbl.mem protected fall))
             && not (Hashtbl.mem moved fall) -> (
        match Hashtbl.find_opt index fall with
        | Some j when counts.(j) = 1 && not blocks.(j).Pkg.is_exit ->
          let live_taken = Option.value ~default:0 (Hashtbl.find_opt live taken) in
          let forbidden =
            live_taken lor Vp_isa.Reg.bit src1 lor Vp_isa.Reg.bit src2
          in
          let rec prefix n acc = function
            | i :: rest
              when n < max_hoist && Pkg_flow.pure i
                   && Instr.def_mask i land forbidden = 0 ->
              prefix (n + 1) (i :: acc) rest
            | _ -> List.rev acc
          in
          let p = prefix 0 [] blocks.(j).Pkg.body in
          if p <> [] then begin
            hoisted := !hoisted + List.length p;
            Hashtbl.replace moved fall p;
            Hashtbl.replace additions a.Pkg.label p
          end
        | _ -> ())
      | _ -> ())
    blocks;
  if !hoisted = 0 then (pkg, 0)
  else
    let blocks =
      List.map
        (fun (b : Pkg.block) ->
          let body =
            match Hashtbl.find_opt moved b.Pkg.label with
            | Some p ->
              let rec drop k l = if k = 0 then l else drop (k - 1) (List.tl l) in
              drop (List.length p) b.Pkg.body
            | None -> b.Pkg.body
          in
          let body =
            match Hashtbl.find_opt additions b.Pkg.label with
            | Some p -> body @ p
            | None -> body
          in
          { b with Pkg.body })
        pkg.Pkg.blocks
    in
    ({ pkg with Pkg.blocks }, !hoisted)

let run ?(protected = []) ?(max_hoist = 4) (pkg : Pkg.t) =
  let protected = set_of (List.map fst pkg.Pkg.entries @ protected) in
  let blocks, merged, renames = merge_chains ~protected pkg in
  (* An absorbed branch block's site now lives in its absorber; follow
     rename chains so metadata stays resolvable. *)
  let rec resolve l =
    match Hashtbl.find_opt renames l with Some l' -> resolve l' | None -> l
  in
  let sites =
    List.map
      (fun (s : Pkg.site) -> { s with Pkg.block_label = resolve s.Pkg.block_label })
      pkg.Pkg.sites
  in
  let pkg = { pkg with Pkg.blocks; sites } in
  let pkg, hoisted = hoist ~protected ~max_hoist pkg in
  (pkg, { merged; hoisted })
