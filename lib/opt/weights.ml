module Pkg = Vp_package.Pkg

type t = {
  index : (string, int) Hashtbl.t;  (** block label -> position *)
  weight : float array;
  succs : (string * float) list array;
      (** per block: successor labels with transfer probabilities *)
}

(* Internal successor edges of a block with transfer probabilities. *)
let succ_probs ~clamp (b : Pkg.block) =
  let p =
    match b.Pkg.taken_prob with
    | Some p -> min clamp (max (1.0 -. clamp) p)
    | None -> 0.5
  in
  match b.Pkg.term with
  | Pkg.Fall l | Pkg.Goto l -> [ (l, 1.0) ]
  | Pkg.Branch { taken; fall; _ } -> [ (taken, p); (fall, 1.0 -. p) ]
  | Pkg.Call_orig { next; _ } -> [ (next, 1.0) ]
  | Pkg.Inlined_call { prologue; _ } -> [ (prologue, 1.0) ]
  | Pkg.Return | Pkg.Exit_jump _ | Pkg.Stop -> []

let compute ?(iterations = 64) ?(clamp = 0.99) (pkg : Pkg.t) =
  let blocks = Array.of_list pkg.Pkg.blocks in
  let n = Array.length blocks in
  let index = Pkg_flow.index blocks in
  let succs = Array.map (succ_probs ~clamp) blocks in
  (* Entries inject unit flow.  Inlined-callee returns rejoin the
     caller; their targets need no injection — flow arrives through the
     Goto edges. *)
  let injection = Array.make n 0.0 in
  List.iter
    (fun (label, _) ->
      match Hashtbl.find_opt index label with
      | Some i -> injection.(i) <- 1.0
      | None -> ())
    pkg.Pkg.entries;
  (* Flat edge arrays in block order, then terminator order: every
     block's incoming flow is summed in the same order on every
     iteration.  Edges leaving the package carry no flow. *)
  let src = ref [] and dst = ref [] and prob = ref [] in
  Array.iteri
    (fun i ss ->
      List.iter
        (fun (l, p) ->
          match Hashtbl.find_opt index l with
          | Some j ->
            src := i :: !src;
            dst := j :: !dst;
            prob := p :: !prob
          | None -> ())
        ss)
    succs;
  let src = Array.of_list (List.rev !src) in
  let dst = Array.of_list (List.rev !dst) in
  let prob = Array.of_list (List.rev !prob) in
  let weight = Array.make n 0.0 in
  let incoming = Array.make n 0.0 in
  for _ = 1 to iterations do
    Array.fill incoming 0 n 0.0;
    for e = 0 to Array.length src - 1 do
      let d = dst.(e) in
      incoming.(d) <- incoming.(d) +. (weight.(src.(e)) *. prob.(e))
    done;
    for i = 0 to n - 1 do
      weight.(i) <- injection.(i) +. incoming.(i)
    done
  done;
  { index; weight; succs }

let block t label =
  match Hashtbl.find_opt t.index label with Some i -> t.weight.(i) | None -> 0.0

(* The flow along the block's last terminator edge to [dst]: a branch
   whose two directions name the same block reports the fall-through
   share. *)
let arc t src dst =
  match Hashtbl.find_opt t.index src with
  | None -> 0.0
  | Some i ->
    List.fold_left
      (fun acc (l, p) -> if String.equal l dst then t.weight.(i) *. p else acc)
      0.0 t.succs.(i)

let hottest_first t (pkg : Pkg.t) =
  List.map (fun (b : Pkg.block) -> (block t b.Pkg.label, b)) pkg.Pkg.blocks
  |> List.stable_sort (fun (wa, _) (wb, _) -> Float.compare wb wa)
  |> List.map snd
