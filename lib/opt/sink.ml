module Instr = Vp_isa.Instr
module Pkg = Vp_package.Pkg

type stats = { sunk : int; deleted : int }

let sink (p : Pkg.t) =
  let n = Array.length p.Pkg.blocks in
  let live_in = Pkg_flow.live_in p in
  let blocks = Array.copy p.Pkg.blocks in
  let is_exit j = j >= 0 && blocks.(j).Pkg.is_exit in
  (* Sunk instructions per exit block, kept in original order, and the
     registers the current block's sunk instructions read there: their
     producers must also sink (or stay, which the stability check
     guarantees is safe). *)
  let pending = Array.make n [] in
  let sunk_uses = Array.make n 0 in
  let sunk = ref 0 in
  let deleted = ref 0 in
  Array.iter
    (fun b ->
      let blk = blocks.(b) in
      if not blk.Pkg.is_exit then begin
        let s1 = Pkg.first blk.Pkg.term and s2 = Pkg.second blk.Pkg.term in
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
        let internal_mask = Pkg_flow.term_uses blk.Pkg.term lor internal s1 lor internal s2 in
        (* Walk the body backwards, tracking (a) registers read later
           inside this block, (b) registers whose defining instruction
           must stay because something after it was kept, i.e. the
           sources redefined below the current point. *)
        let kept = ref [] and moved = ref false in
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
            if Pkg_flow.pure i && defs <> 0 && (not needed_internally) && sources_stable then begin
              moved := true;
              if wanted_exits = [] || not def_stable then incr deleted
              else begin
                incr sunk;
                List.iter
                  (fun j ->
                    sunk_uses.(j) <- sunk_uses.(j) lor uses;
                    pending.(j) <- i :: pending.(j))
                  wanted_exits
              end
            end
            else begin
              kept := i :: !kept;
              live_later := (!live_later land lnot defs) lor uses;
              redefined_below := !redefined_below lor defs
            end)
        (List.rev blk.Pkg.body);
      if !moved then blocks.(b) <- { blk with Pkg.body = !kept }
    end)
    p.Pkg.order;
  Array.iteri
    (fun j arrived ->
      if arrived <> [] then
        blocks.(j) <- { (blocks.(j)) with Pkg.body = arrived @ blocks.(j).Pkg.body })
    pending;
  let stats = { sunk = !sunk; deleted = !deleted } in
  if !sunk = 0 && !deleted = 0 then (p, stats) else ({ p with Pkg.blocks }, stats)
