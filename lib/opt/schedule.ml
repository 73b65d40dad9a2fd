module Instr = Vp_isa.Instr
module Op = Vp_isa.Op
module Reg = Vp_isa.Reg
module Pkg = Vp_package.Pkg

type machine = {
  issue_width : int;
  ialu : int;
  fp : int;
  mem : int;
  branch : int;
}

let epic_default = { issue_width = 8; ialu = 5; fp = 3; mem = 3; branch = 3 }

let imax (a : int) b = if a >= b then a else b

(* Functional-unit classes index the per-cycle slot table. *)
let slot_class = function
  | Op.Ialu -> 0
  | Op.Fp | Op.Long_fp -> 1
  | Op.Mem -> 2
  | Op.Control -> 3

let capacities m = [| m.ialu; m.fp; m.mem; m.branch |]

(* Register masks without the zero register: it is neither really
   written nor meaningfully read, so it creates no dependence. *)
let not_zero = lnot (Reg.bit Reg.zero)

let no_mem = 0
let load = 1
let store = 2

(* One body as flat per-instruction arrays. *)
type body = {
  defs : int array;
  uses : int array;
  mem : int array;  (** [no_mem], [load] or [store] *)
  lat : int array;
  cls : int array;  (** [slot_class] of the functional unit *)
}

let summarise arr =
  {
    defs = Array.map (fun i -> Instr.def_mask i land not_zero) arr;
    uses = Array.map (fun i -> Instr.use_mask i land not_zero) arr;
    mem =
      Array.map
        (fun i -> if Instr.is_store i then store else if Instr.is_load i then load else no_mem)
        arr;
    lat = Array.map Instr.latency arr;
    cls = Array.map (fun i -> slot_class (Instr.fu i)) arr;
  }

(* Minimum issue distance from [j] to a later [i], or -1 when [i] does
   not depend on [j].  RAW: [j]'s full latency.  WAW: the next cycle is
   enough on this machine.  WAR: registers are read at issue, so the
   same cycle is fine but the order must hold (0).  Memory: stores are
   barriers against every memory operation; loads may pass loads. *)
let edge b j i =
  let e = if b.defs.(j) land b.uses.(i) <> 0 then b.lat.(j) else -1 in
  let e = if b.defs.(j) land b.defs.(i) <> 0 then imax e 1 else e in
  let e = if b.uses.(j) land b.defs.(i) <> 0 then imax e 0 else e in
  let mj = b.mem.(j) and mi = b.mem.(i) in
  if (mj = store && mi <> no_mem) || (mi = store && mj <> no_mem) then imax e 1 else e

let schedule_body ?(machine = epic_default) instrs =
  match instrs with
  | [] | [ _ ] -> instrs
  | _ ->
    let arr = Array.of_list instrs in
    let n = Array.length arr in
    let b = summarise arr in
    let cap = capacities machine in
    (* Latency-weighted height (longest path to any sink) and the
       number of unissued predecessors of each instruction. *)
    let height = Array.make n 0 in
    let pending = Array.make n 0 in
    for j = n - 1 downto 0 do
      let h = ref b.lat.(j) in
      for i = j + 1 to n - 1 do
        let e = edge b j i in
        if e >= 0 then begin
          h := imax !h (height.(i) + imax 1 e);
          pending.(i) <- pending.(i) + 1
        end
      done;
      height.(j) <- !h
    done;
    (* List scheduling: each pick takes the ready instruction with a
       free slot of the highest height, lowest index first, and the
       scan repeats after every issue so a latency-0 successor can
       still issue in the same cycle.  Only released instructions (no
       unissued predecessor left) are scanned. *)
    let ready_at = Array.make n 0 in
    let released = Array.make n 0 in
    let nreleased = ref 0 in
    let release i =
      released.(!nreleased) <- i;
      incr nreleased
    in
    for i = 0 to n - 1 do
      if pending.(i) = 0 then release i
    done;
    let order = Array.make n 0 in
    let used = Array.make (Array.length cap) 0 in
    let count = ref 0 in
    let cycle = ref 0 in
    while !count < n do
      Array.fill used 0 (Array.length used) 0;
      let width = ref 0 in
      let progressed = ref true in
      while !progressed && !width < machine.issue_width do
        let best = ref (-1) in
        let slot = ref 0 in
        for k = 0 to !nreleased - 1 do
          let i = released.(k) in
          if
            ready_at.(i) <= !cycle
            && used.(b.cls.(i)) < cap.(b.cls.(i))
            && (!best < 0
               || height.(i) > height.(!best)
               || (height.(i) = height.(!best) && i < !best))
          then begin
            best := i;
            slot := k
          end
        done;
        let j = !best in
        if j < 0 then progressed := false
        else begin
          decr nreleased;
          released.(!slot) <- released.(!nreleased);
          order.(!count) <- j;
          incr count;
          incr width;
          used.(b.cls.(j)) <- used.(b.cls.(j)) + 1;
          for i = j + 1 to n - 1 do
            let e = edge b j i in
            if e >= 0 then begin
              pending.(i) <- pending.(i) - 1;
              ready_at.(i) <- imax ready_at.(i) (!cycle + e);
              if pending.(i) = 0 then release i
            end
          done
        end
      done;
      incr cycle
    done;
    let rec collect k acc = if k < 0 then acc else collect (k - 1) (arr.(order.(k)) :: acc) in
    collect (n - 1) []

let estimate_cycles ?(machine = epic_default) instrs =
  (* In-order issue of the body as given, tracking operand readiness
     and FU occupancy per cycle.  The zero register is never marked
     busy, so reading it never waits. *)
  let cap = capacities machine in
  let used = Array.make (Array.length cap) 0 in
  let ready = Array.make Reg.count 0 in
  let cycle = ref 0 in
  let width = ref 0 in
  List.iter
    (fun i ->
      let operand_ready =
        List.fold_left
          (fun acc r -> imax acc ready.(Reg.to_int r))
          0
          (Reg.of_mask (Instr.use_mask i))
      in
      let c = slot_class (Instr.fu i) in
      while !cycle < operand_ready || !width >= machine.issue_width || used.(c) >= cap.(c) do
        incr cycle;
        width := 0;
        Array.fill used 0 (Array.length used) 0
      done;
      used.(c) <- used.(c) + 1;
      incr width;
      List.iter
        (fun r -> ready.(Reg.to_int r) <- !cycle + Instr.latency i)
        (Reg.of_mask (Instr.def_mask i land not_zero)))
    instrs;
  match instrs with [] -> 0 | _ -> !cycle + 1

let run ?machine pkg =
  Pkg.map_blocks
    (fun b ->
      let body = schedule_body ?machine b.Pkg.body in
      if body == b.Pkg.body then b else { b with Pkg.body })
    pkg
