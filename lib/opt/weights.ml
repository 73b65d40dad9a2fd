module Pkg = Vp_package.Pkg

(* The rounds index only arrays built here, with positions taken from
   them: bounds checks there are dead weight. *)
external ( .!() ) : 'a array -> int -> 'a = "%array_unsafe_get"
external ( .!()<- ) : 'a array -> int -> 'a -> unit = "%array_unsafe_set"

type t = {
  first : int array;  (** successor position along [Pkg.first], or -1 *)
  second : int array;  (** along [Pkg.second]: a branch's fall-through *)
  weight : float array;
  p_first : float array;  (** transfer probability along [first] *)
  p_second : float array;  (** along [second] *)
}

let estimate ?(iterations = 64) ?(clamp = 0.99) (pkg : Pkg.t) =
  let blocks = pkg.Pkg.blocks in
  let n = Array.length blocks in
  let alive = Pkg.live pkg in
  let first = Array.map (fun (b : Pkg.block) -> Pkg.first b.Pkg.term) blocks in
  let second = Array.map (fun (b : Pkg.block) -> Pkg.second b.Pkg.term) blocks in
  let p_first = Array.make n 1.0 and p_second = Array.make n 0.0 in
  for i = 0 to n - 1 do
    match blocks.(i).Pkg.term with
    | Pkg.Branch _ ->
      (* [min clamp (max (1.0 -. clamp) p)], with float comparisons. *)
      let p =
        match blocks.(i).Pkg.taken_prob with
        | Some p ->
          let lo = 1.0 -. clamp in
          let p = if lo >= p then lo else p in
          if clamp <= p then clamp else p
        | None -> 0.5
      in
      p_first.(i) <- p;
      p_second.(i) <- 1.0 -. p
    | _ -> ()
  done;
  (* Entries inject unit flow.  Inlined-callee returns rejoin the
     caller; their targets need no injection — flow arrives through the
     Goto edges. *)
  let injection = Array.make n 0.0 in
  List.iter
    (fun (i, _) -> if i >= 0 && i < n && alive.(i) then injection.(i) <- 1.0)
    pkg.Pkg.entries;
  (* Every block's incoming flow is summed in the same order on every
     round: package order, then terminator order (a branch's taken edge
     before its fall-through).  The edges are grouped by destination in
     that order.  Edges leaving the package carry no flow. *)
  let start = Array.make (n + 1) 0 in
  let count d = if d >= 0 then start.(d + 1) <- start.(d + 1) + 1 in
  Array.iter
    (fun i ->
      count first.(i);
      count second.(i))
    pkg.Pkg.order;
  for d = 1 to n do
    start.(d) <- start.(d) + start.(d - 1)
  done;
  let src = Array.make start.(n) 0 and prob = Array.make start.(n) 0.0 in
  let next = Array.sub start 0 n in
  let add i d p =
    if d >= 0 then begin
      src.(next.(d)) <- i;
      prob.(next.(d)) <- p;
      next.(d) <- next.(d) + 1
    end
  in
  Array.iter
    (fun i ->
      add i first.(i) p_first.(i);
      add i second.(i) p_second.(i))
    pkg.Pkg.order;
  (* A sink — a block no flow leaves — feeds no other block, so only the
     last round computes it, from the weights of the round before, as
     every round reads them.  The blocks flow leaves are grouped by
     in-degree so that the rounds over the usual one and two incoming
     edges run without an inner loop, from flat arrays of their edges.
     Starting from 0.0 and adding non-negative terms, a block's incoming
     flow is exactly [t1] for one edge and [t1 +. t2] for two. *)
  let feeds i = alive.(i) && (first.(i) >= 0 || second.(i) >= 0) in
  let degree i = start.(i + 1) - start.(i) in
  let ones = ref 0 and twos = ref 0 and others = ref 0 in
  for i = 0 to n - 1 do
    if feeds i then
      match degree i with 1 -> incr ones | 2 -> incr twos | _ -> incr others
  done;
  let one = Array.make !ones 0 and one_src = Array.make !ones 0 and one_p = Array.make !ones 0.0 in
  let two = Array.make !twos 0 and two_src = Array.make (2 * !twos) 0 in
  let two_p = Array.make (2 * !twos) 0.0 in
  let other = Array.make !others 0 in
  ones := 0;
  twos := 0;
  others := 0;
  for i = 0 to n - 1 do
    if feeds i then begin
      let e = start.(i) in
      match degree i with
      | 1 ->
        one.(!ones) <- i;
        one_src.(!ones) <- src.(e);
        one_p.(!ones) <- prob.(e);
        incr ones
      | 2 ->
        two.(!twos) <- i;
        for k = 0 to 1 do
          two_src.((2 * !twos) + k) <- src.(e + k);
          two_p.((2 * !twos) + k) <- prob.(e + k)
        done;
        incr twos
      | _ ->
        other.(!others) <- i;
        incr others
    end
  done;
  (* Jacobi rounds from [old] into [young].  A round that changes no
     weight is a fixed point: every later round would repeat it.
     Weights are sums of non-negative products, never -0.0 or NaN, so
     float equality is bit identity. *)
  let old = ref (Array.make n 0.0) and young = ref (Array.make n 0.0) in
  let round = ref 1 in
  while !round < iterations do
    let o = !old and y = !young in
    let changed = ref false in
    for k = 0 to Array.length one - 1 do
      let d = one.!(k) in
      let w = injection.!(d) +. (o.!(one_src.!(k)) *. one_p.!(k)) in
      y.!(d) <- w;
      if w <> o.!(d) then changed := true
    done;
    for k = 0 to Array.length two - 1 do
      let d = two.!(k) and e = 2 * k in
      let w =
        injection.!(d)
        +. ((o.!(two_src.!(e)) *. two_p.!(e)) +. (o.!(two_src.!(e + 1)) *. two_p.!(e + 1)))
      in
      y.!(d) <- w;
      if w <> o.!(d) then changed := true
    done;
    for k = 0 to Array.length other - 1 do
      let d = other.!(k) in
      let acc = ref 0.0 in
      for e = start.!(d) to start.!(d + 1) - 1 do
        acc := !acc +. (o.!(src.!(e)) *. prob.!(e))
      done;
      let w = injection.!(d) +. !acc in
      y.!(d) <- w;
      if w <> o.!(d) then changed := true
    done;
    old := y;
    young := o;
    round := if !changed then !round + 1 else iterations
  done;
  let weight = !young in
  if iterations > 0 then begin
    let o = !old in
    for d = 0 to n - 1 do
      if alive.(d) then begin
        let acc = ref 0.0 in
        for e = start.(d) to start.(d + 1) - 1 do
          acc := !acc +. (o.(src.(e)) *. prob.(e))
        done;
        weight.(d) <- injection.(d) +. !acc
      end
    done
  end;
  { first; second; weight; p_first; p_second }

let weights t = t.weight

(* The flow along the block's last terminator edge to [j]: a branch
   whose two directions name the same block reports the fall-through
   share. *)
let arc_at t i j =
  if t.second.(i) = j then t.weight.(i) *. t.p_second.(i)
  else if t.first.(i) = j then t.weight.(i) *. t.p_first.(i)
  else 0.0
