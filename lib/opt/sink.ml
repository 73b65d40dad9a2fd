module Instr = Vp_isa.Instr
module Pkg = Vp_package.Pkg

type stats = { sunk : int; deleted : int }

let succ_labels = Pkg_flow.succ_labels

(* Backward liveness over the package graph.  Each block is summarised
   once as a (gen, kill) mask pair — registers read before any write in
   the block, registers the block writes — for the shared fixpoint
   [Vp_cfg.Liveness.solve].  Exit blocks' terminal contribution is
   their recorded dummy-consumer set. *)
let liveness (pkg : Pkg.t) =
  let blocks = Array.of_list pkg.Pkg.blocks in
  let n = Array.length blocks in
  let index = Pkg_flow.index blocks in
  let gen = Array.make n 0 in
  let kill = Array.make n 0 in
  Array.iteri
    (fun i (b : Pkg.block) ->
      let g = ref 0 and k = ref 0 in
      List.iter
        (fun ins ->
          g := !g lor (Instr.use_mask ins land lnot !k);
          k := !k lor Instr.def_mask ins)
        b.Pkg.body;
      gen.(i) <- !g lor (Pkg_flow.term_uses b.Pkg.term land lnot !k);
      kill.(i) <- !k lor Pkg_flow.term_defs b.Pkg.term)
    blocks;
  (* Exit blocks carry the live set across the exited arc even after
     linking retargets their terminator to another package. *)
  let terminal =
    Array.map
      (fun (b : Pkg.block) ->
        if b.Pkg.is_exit then b.Pkg.live_out
        else Pkg_flow.term_uses b.Pkg.term)
      blocks
  in
  let succs =
    Array.map
      (fun (b : Pkg.block) ->
        List.filter_map (Hashtbl.find_opt index) (succ_labels b.Pkg.term))
      blocks
  in
  (blocks, index, Vp_cfg.Liveness.solve ~gen ~kill ~terminal ~succs)

let live_in pkg =
  let blocks, _, live_in = liveness pkg in
  let table = Hashtbl.create (max 16 (Array.length blocks)) in
  Array.iteri (fun i (b : Pkg.block) -> Hashtbl.replace table b.Pkg.label live_in.(i)) blocks;
  table

let run (pkg : Pkg.t) =
  let blocks, index, live_in = liveness pkg in
  let exit_of label =
    match Hashtbl.find_opt index label with
    | Some j when blocks.(j).Pkg.is_exit -> Some j
    | _ -> None
  in
  (* Sunk instructions per exit block, kept in original order. *)
  let pending : (int, Instr.t list ref) Hashtbl.t = Hashtbl.create 8 in
  let sunk = ref 0 in
  let deleted = ref 0 in
  let new_blocks =
    Array.map
      (fun (b : Pkg.block) ->
        if b.Pkg.is_exit then b
        else begin
          let exit_succs = List.filter_map exit_of (succ_labels b.Pkg.term) in
          let internal_mask =
            List.fold_left
              (fun acc l ->
                match Hashtbl.find_opt index l with
                | Some j when not blocks.(j).Pkg.is_exit -> acc lor live_in.(j)
                | _ -> acc)
              (Pkg_flow.term_uses b.Pkg.term)
              (succ_labels b.Pkg.term)
          in
          (* Walk the body backwards, tracking (a) registers read later
             inside this block, (b) registers whose defining instruction
             must stay because something after it was kept, i.e. the
             sources redefined below the current point. *)
          let kept = ref [] in
          let live_later = ref internal_mask in
          let redefined_below = ref 0 in
          (* Registers a sunk instruction reads at each exit: their
             producers must also sink (or stay, which the stability
             check guarantees is safe). *)
          let sunk_uses = Hashtbl.create 4 in
          let sunk_uses_of j = Option.value ~default:0 (Hashtbl.find_opt sunk_uses j) in
          let exit_live j = live_in.(j) lor sunk_uses_of j in
          List.iter
            (fun i ->
              let defs = Instr.def_mask i in
              let uses = Instr.use_mask i in
              let needed_internally = defs land !live_later <> 0 in
              let sources_stable = uses land !redefined_below = 0 in
              let wanted_exits =
                List.filter (fun j -> defs land exit_live j <> 0) exit_succs
              in
              (* A def overwritten by a kept instruction below never
                 reaches the exits — what they see is the newer value —
                 so such an instruction is dead here, not sinkable. *)
              let def_stable = defs land !redefined_below = 0 in
              if
                Pkg_flow.pure i && defs <> 0
                && not needed_internally
                && sources_stable
              then
                if wanted_exits = [] || not def_stable then incr deleted
                else begin
                  incr sunk;
                  List.iter
                    (fun j ->
                      Hashtbl.replace sunk_uses j (sunk_uses_of j lor uses);
                      let cell =
                        match Hashtbl.find_opt pending j with
                        | Some c -> c
                        | None ->
                          let c = ref [] in
                          Hashtbl.replace pending j c;
                          c
                      in
                      cell := i :: !cell)
                    wanted_exits
                end
              else begin
                kept := i :: !kept;
                live_later := (!live_later land lnot defs) lor uses;
                redefined_below := !redefined_below lor defs
              end)
            (List.rev b.Pkg.body);
          { b with Pkg.body = !kept }
        end)
      blocks
  in
  let final =
    Array.mapi
      (fun i (b : Pkg.block) ->
        match Hashtbl.find_opt pending i with
        | Some cell -> { b with Pkg.body = !cell @ b.Pkg.body }
        | None -> b)
      new_blocks
    |> Array.to_list
  in
  ({ pkg with Pkg.blocks = final }, { sunk = !sunk; deleted = !deleted })
