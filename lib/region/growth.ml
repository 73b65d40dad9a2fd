module Cfg = Vp_cfg.Cfg
module T = Temperature

let adopt_unknown_arcs mf =
  let cfg = Region.cfg mf in
  for id = 0 to Cfg.num_arcs cfg - 1 do
    let a = Cfg.arc cfg id in
    if
      T.equal (Region.arc_temp mf a) T.Unknown
      && T.is_hot (Region.temp mf a.Cfg.src)
      && T.is_hot (Region.temp mf a.Cfg.dst)
    then ignore (Region.set_arc_temp mf a T.Hot)
  done

(* Some non-back-edge in-arc of [b] is Hot and comes from a Hot
   block. *)
let has_hot_forward_pred mf cfg b =
  let found = ref false in
  for k = 0 to Cfg.in_degree cfg b - 1 do
    let a = Cfg.pred cfg b k in
    if
      (not a.Cfg.back)
      && T.is_hot (Region.arc_temp mf a)
      && T.is_hot (Region.temp mf a.Cfg.src)
    then found := true
  done;
  !found

(* A Hot block is an entry when no non-back-edge predecessor arc both
   is Hot and comes from a Hot block.  Ascending block order. *)
let entry_blocks mf =
  let cfg = Region.cfg mf in
  let acc = ref [] in
  for b = Cfg.num_blocks cfg - 1 downto 0 do
    if T.is_hot (Region.temp mf b) && not (has_hot_forward_pred mf cfg b) then
      acc := b :: !acc
  done;
  !acc

let grow_entry mf ~max_blocks entry =
  let cfg = Region.cfg mf in
  let adopted = ref 0 in
  (* Walk backwards breadth-first through non-Cold predecessors, back
     edges ignored. *)
  let queue = Queue.create () in
  Queue.add entry queue;
  while (not (Queue.is_empty queue)) && !adopted < max_blocks do
    let b = Queue.take queue in
    for k = 0 to Cfg.in_degree cfg b - 1 do
      let a = Cfg.pred cfg b k in
      if
        (not a.Cfg.back) && !adopted < max_blocks
        && not (T.is_cold (Region.arc_temp mf a))
      then begin
        let p = a.Cfg.src in
        match Region.temp mf p with
        | T.Hot ->
          (* Reached existing hot code: connect and stop this path. *)
          ignore (Region.set_arc_temp mf a T.Hot)
        | T.Unknown ->
          ignore (Region.set_temp mf p T.Hot);
          ignore (Region.set_arc_temp mf a T.Hot);
          incr adopted;
          Queue.add p queue
        | T.Cold -> ()
      end
    done
  done;
  !adopted

(* A block is a pure connector when it cannot branch, call or leave
   the function: only straight-line code ending in a fall-through or
   an unconditional jump. *)
let connector_block cfg b =
  match Cfg.ending cfg b with
  | Cfg.Straight | Cfg.Jump -> true
  | Cfg.Branch | Cfg.Call | Cfg.Return | Cfg.Halt -> false

(* The connector chain from block [b]: while [b] is not Hot, it must be
   a connector within the instruction [budget] with a single
   successor, which the chain follows.  Returns the chain's length in
   blocks when it reaches a Hot block, -1 when it stops short. *)
let rec chain_length mf cfg b budget =
  if T.is_hot (Region.temp mf b) then 0
  else if budget < Cfg.len cfg b || not (connector_block cfg b) then -1
  else if Cfg.out_degree cfg b <> 1 then -1
  else
    let rest = chain_length mf cfg (Cfg.succ cfg b 0).Cfg.dst (budget - Cfg.len cfg b) in
    if rest < 0 then -1 else rest + 1

(* The arc that closes a chain of [len] blocks entered along [arc]:
   [arc] itself for an empty chain, else the last block's out-arc. *)
let rec closing_arc cfg (arc : Cfg.arc) len =
  if len = 0 then arc else closing_arc cfg (Cfg.succ cfg arc.Cfg.dst 0) (len - 1)

(* Make the chain of [len] blocks entered along [arc] Hot, with its
   arcs. *)
let rec force_chain mf cfg (arc : Cfg.arc) len =
  Region.force_hot_arc mf arc;
  if len > 0 then begin
    Region.force_hot mf arc.Cfg.dst;
    force_chain mf cfg (Cfg.succ cfg arc.Cfg.dst 0) (len - 1)
  end

(* Try to adopt the exit chain starting along [arc]: walk single-
   successor, branch-free, call-free blocks within the instruction
   budget, and adopt the chain when it rejoins a Hot block.  Only
   directions the phase actually traversed qualify: a marked arc needs
   a non-zero profile weight, while an Unknown arc (no information
   against it) qualifies outright.  Phase-defining fully-biased cold
   arms have weight zero and are never adopted, preserving package
   specialisation. *)
let adopt_connector mf ~max_connector (arc : Cfg.arc) =
  let cfg = Region.cfg mf in
  (* A traversed direction may rejoin anywhere; an untraversed one
     only qualifies when the chain closes a loop (back-edge rejoin),
     so phase-defining biased arms stay excluded. *)
  let traversed =
    match Region.arc_temp mf arc with
    | T.Unknown -> true
    | T.Cold -> Region.arc_weight mf arc >= 1
    | T.Hot -> false
  in
  match Region.arc_temp mf arc with
  | T.Hot -> 0
  | T.Unknown | T.Cold ->
    let len = chain_length mf cfg arc.Cfg.dst max_connector in
    if len >= 0 && (traversed || (closing_arc cfg arc len).Cfg.back) then begin
      force_chain mf cfg arc len;
      (* Count even zero-length chains as progress so the formation
         loop reruns inference over the newly hot arc. *)
      1 + len
    end
    else 0

(* The exit arcs are listed before any adoption: a chain made Hot
   does not add exits to this pass. *)
let adopt_loop_connectors mf ~max_connector =
  if max_connector <= 0 then 0
  else
    List.fold_left
      (fun acc arc -> acc + adopt_connector mf ~max_connector arc)
      0 (Region.exit_arcs mf)

let grow ?(max_blocks = 1) ?(max_connector = 6) region =
  let total = ref 0 in
  let n = Region.num_funcs region in
  for i = 0 to n - 1 do
    adopt_unknown_arcs (Region.func region i)
  done;
  for i = 0 to n - 1 do
    total := !total + adopt_loop_connectors (Region.func region i) ~max_connector
  done;
  for i = 0 to n - 1 do
    let mf = Region.func region i in
    (* Every entry is found before any grows. *)
    List.iter
      (fun entry -> total := !total + grow_entry mf ~max_blocks entry)
      (entry_blocks mf)
  done;
  !total
