module Instr = Vp_isa.Instr
module Pkg = Vp_package.Pkg

type stats = { sunk : int; deleted : int }

let live_in pkg =
  let idx = Pkg_flow.of_pkg pkg in
  let live = Pkg_flow.live_in idx in
  let table = Hashtbl.create (max 16 (Pkg_flow.size idx)) in
  Array.iteri (fun i m -> Hashtbl.replace table (Pkg_flow.label idx i) m) live;
  table

let sink (idx : Pkg_flow.t) =
  let n = Pkg_flow.size idx in
  let live_in = Pkg_flow.live_in idx in
  let is_exit j = j >= 0 && Pkg_flow.is_exit idx j in
  (* Sunk instructions per exit block, kept in original order, and the
     registers the current block's sunk instructions read there: their
     producers must also sink (or stay, which the stability check
     guarantees is safe). *)
  let pending = Array.make n [] in
  let sunk_uses = Array.make n 0 in
  let sunk = ref 0 in
  let deleted = ref 0 in
  for b = 0 to n - 1 do
    if idx.alive.(b) && not (Pkg_flow.is_exit idx b) then begin
      let s1 = idx.first.(b) and s2 = idx.second.(b) in
      (* Exit successors in terminator order, a branch's two directions
         both counted when they name the same exit. *)
      let exit_succs =
        match (is_exit s1, is_exit s2) with
        | true, true -> [ s1; s2 ]
        | true, false -> [ s1 ]
        | false, true -> [ s2 ]
        | false, false -> []
      in
      let internal j = if j >= 0 && not (is_exit j) then live_in.(j) else 0 in
      let internal_mask = Pkg_flow.term_uses idx.term.(b) lor internal s1 lor internal s2 in
      (* Walk the body backwards, tracking (a) registers read later
         inside this block, (b) registers whose defining instruction
         must stay because something after it was kept, i.e. the
         sources redefined below the current point. *)
      let kept = ref [] in
      let live_later = ref internal_mask in
      let redefined_below = ref 0 in
      List.iter (fun j -> sunk_uses.(j) <- 0) exit_succs;
      let exit_live j = live_in.(j) lor sunk_uses.(j) in
      List.iter
        (fun i ->
          let defs = Instr.def_mask i in
          let uses = Instr.use_mask i in
          let needed_internally = defs land !live_later <> 0 in
          let sources_stable = uses land !redefined_below = 0 in
          let wanted_exits = List.filter (fun j -> defs land exit_live j <> 0) exit_succs in
          (* A def overwritten by a kept instruction below never reaches
             the exits — what they see is the newer value — so such an
             instruction is dead here, not sinkable. *)
          let def_stable = defs land !redefined_below = 0 in
          if Pkg_flow.pure i && defs <> 0 && (not needed_internally) && sources_stable then
            if wanted_exits = [] || not def_stable then incr deleted
            else begin
              incr sunk;
              List.iter
                (fun j ->
                  sunk_uses.(j) <- sunk_uses.(j) lor uses;
                  pending.(j) <- i :: pending.(j))
                wanted_exits
            end
          else begin
            kept := i :: !kept;
            live_later := (!live_later land lnot defs) lor uses;
            redefined_below := !redefined_below lor defs
          end)
        (List.rev idx.body.(b));
      idx.body.(b) <- !kept
    end
  done;
  Array.iteri (fun j p -> if p <> [] then idx.body.(j) <- p @ idx.body.(j)) pending;
  { sunk = !sunk; deleted = !deleted }

let run (pkg : Pkg.t) =
  let idx = Pkg_flow.of_pkg pkg in
  let stats = sink idx in
  (Pkg_flow.to_pkg idx, stats)
