type link = {
  from_pkg : int;
  site : Pkg.site;
  to_pkg : int;
  to_block : int;
}

type group = {
  root : string;
  ordered : Pkg.t list;
  links : link list;
  rank : float;
}

let rank_of_ratios = function
  | [] -> 0.0
  | r :: rest ->
    let step (acc, weight) ri = let weight = weight *. ri in (acc +. weight, weight) in
    fst (List.fold_left step (r, r) rest)

(* A site with a cold direction links to the first package rightward
   (wrapping, excluding the source) holding a copy of the cold target
   under the identical inline context.

   The ordering search re-ranks the same package set under many
   candidate orders, so everything order-independent is resolved once
   per group: one table keyed on (inline context, original address)
   gives a row of each package's first copy of that block (its
   position, or -1), indexed by the package's position in the input
   order (its base index), and
   every linkable site keeps its cold target's row.  A candidate
   order is then an int array of base indices, and ranking it reads
   the rows and one scratch count array. *)
type memo = {
  arr : Pkg.t array;
  sites : (Pkg.site * int array) array array;
      (* per base index: linkable sites in declaration order, each with
         its cold target's copy row *)
  branches : int array;  (* per base index: the rank's denominator *)
  incoming : int array;  (* scratch: links into each base index *)
}

let memoize arr =
  let n = Array.length arr in
  let rows = Hashtbl.create 64 in
  let copy j k =
    let b = arr.(j).Pkg.blocks.(k) in
    if not b.Pkg.is_exit then begin
      let key = (b.Pkg.context, b.Pkg.orig_addr) in
      let row =
        match Hashtbl.find_opt rows key with
        | Some row -> row
        | None ->
          let row = Array.make n (-1) in
          Hashtbl.replace rows key row;
          row
      in
      if row.(j) < 0 then row.(j) <- k
    end
  in
  Array.iteri (fun j (p : Pkg.t) -> Array.iter (copy j) p.Pkg.order) arr;
  let linkable (s : Pkg.site) =
    match (s.Pkg.cold_exit, s.Pkg.cold_target, s.Pkg.bias) with
    | Some _, Some target, (Pkg.T | Pkg.F) ->
      Option.map (fun row -> (s, row)) (Hashtbl.find_opt rows (s.Pkg.site_context, target))
    | _ -> None
  in
  {
    arr;
    sites = Array.map (fun (p : Pkg.t) -> Array.of_list (List.filter_map linkable p.Pkg.sites)) arr;
    branches = Array.map Pkg.branch_count arr;
    incoming = Array.make n 0;
  }

(* Base index of the package a site at position [posn] of [perm] links
   to, or -1: the first one rightward, wrapping, with a copy in [row].
   The source's own position is never visited, so its own copy (if
   any) never counts. *)
let rec target perm row posn k =
  let n = Array.length perm in
  if k >= n - 1 then -1
  else
    let j = Array.unsafe_get perm ((posn + 1 + k) mod n) in
    if Array.unsafe_get row j >= 0 then j else target perm row posn (k + 1)

(* The rank of [perm] (Figure 7): the accumulator over ratios in
   order, with the same float operations as [rank_of_ratios].  Inlined,
   so the rank is never boxed: ranking an ordering allocates nothing. *)
let[@inline] rank m perm =
  let n = Array.length perm in
  let incoming = m.incoming in
  Array.fill incoming 0 n 0;
  for posn = 0 to n - 1 do
    let sites = m.sites.(perm.(posn)) in
    for s = 0 to Array.length sites - 1 do
      let j = target perm (snd sites.(s)) posn 0 in
      if j >= 0 then incoming.(j) <- incoming.(j) + 1
    done
  done;
  let acc = ref 0.0 and weight = ref 0.0 in
  for posn = 0 to n - 1 do
    let i = perm.(posn) in
    let r =
      if m.branches.(i) = 0 then 0.0
      else float_of_int incoming.(i) /. float_of_int m.branches.(i)
    in
    if posn = 0 then begin
      acc := r;
      weight := r
    end
    else begin
      weight := !weight *. r;
      acc := !acc +. !weight
    end
  done;
  !acc

(* The links of [perm], in candidate order: positions left to right,
   each package's sites in declaration order.  Links name packages by
   their position in [perm]. *)
let links_of m perm =
  let posn_of = Array.make (Array.length perm) 0 in
  Array.iteri (fun posn i -> posn_of.(i) <- posn) perm;
  let links = ref [] in
  for posn = Array.length perm - 1 downto 0 do
    let i = perm.(posn) in
    let sites = m.sites.(i) in
    for s = Array.length sites - 1 downto 0 do
      let site, row = sites.(s) in
      let j = target perm row posn 0 in
      if j >= 0 then
        links := { from_pkg = posn; site; to_pkg = posn_of.(j); to_block = row.(j) } :: !links
    done
  done;
  !links

let links_for_ordering ordered =
  let arr = Array.of_list ordered in
  links_of (memoize arr) (Array.init (Array.length arr) Fun.id)

(* Beyond the exhaustive-search cap, build the order greedily: at each
   position try every remaining package (rest kept in input order) and
   keep the first whose completed ordering ranks highest.  [perm] holds
   the chosen prefix, then the remaining packages in input order. *)
let greedy_perm m n =
  let perm = Array.init n Fun.id and cand = Array.make n 0 in
  for t = 0 to n - 1 do
    let best = ref t and best_rank = ref 0.0 in
    for s = t to n - 1 do
      Array.blit perm 0 cand 0 n;
      cand.(t) <- perm.(s);
      Array.blit perm t cand (t + 1) (s - t);
      let r = rank m cand in
      if s = t || not (!best_rank >= r) then begin
        best := s;
        best_rank := r
      end
    done;
    let c = perm.(!best) in
    Array.blit perm t perm (t + 1) (!best - t);
    perm.(t) <- c
  done;
  perm

let max_exhaustive = 6

type stats = {
  groups : int;
  linked_groups : int;
  orderings_ranked : int;
  greedy_fallbacks : int;
  links_resolved : int;
}

(* Candidates are ranked in order, identity first; a later one wins
   only with a strictly higher rank.  Up to the cap that is every
   order, lexicographically (the leftmost element varying slowest);
   beyond it, the identity and the greedy order. *)
let best_ordering pkgs =
  let arr = Array.of_list pkgs in
  let n = Array.length arr in
  let m = memoize arr in
  let best = Array.make n 0 and best_rank = ref 0.0 and ranked = ref 0 in
  let consider perm =
    incr ranked;
    let r = rank m perm in
    if !ranked = 1 || r > !best_rank then begin
      best_rank := r;
      Array.blit perm 0 best 0 n
    end
  in
  if n <= max_exhaustive then begin
    let perm = Array.make n 0 and used = Array.make n false in
    let rec fill k =
      if k = n then consider perm
      else
        for x = 0 to n - 1 do
          if not used.(x) then begin
            used.(x) <- true;
            perm.(k) <- x;
            fill (k + 1);
            used.(x) <- false
          end
        done
    in
    fill 0
  end
  else begin
    Logs.warn (fun m ->
        m
          "Linking: %d packages share root %s; permutation search is capped \
           at %d, falling back to greedy rank-based ordering"
          n arr.(0).Pkg.root max_exhaustive);
    consider (Array.init n Fun.id);
    consider (greedy_perm m n)
  end;
  (!best_rank, Array.to_list (Array.map (fun i -> arr.(i)) best), links_of m best, !ranked)

let group_packages_with_stats ?(linking = true) pkgs =
  let roots =
    List.rev
      (List.fold_left
         (fun acc p -> if List.mem p.Pkg.root acc then acc else p.Pkg.root :: acc)
         [] pkgs)
  in
  let searched g = linking && List.length g.ordered > 1 in
  let ranked = ref 0 in
  let groups =
    List.map
      (fun root ->
        let members = List.filter (fun p -> p.Pkg.root = root) pkgs in
        let g = { root; ordered = members; links = []; rank = 0.0 } in
        if not (searched g) then g
        else begin
          let rank, ordered, links, n = best_ordering members in
          ranked := !ranked + n;
          { root; ordered; links; rank }
        end)
      roots
  in
  let linked = List.filter searched groups in
  ( groups,
    {
      groups = List.length groups;
      linked_groups = List.length linked;
      orderings_ranked = !ranked;
      greedy_fallbacks =
        List.length (List.filter (fun g -> List.length g.ordered > max_exhaustive) linked);
      links_resolved = List.fold_left (fun acc g -> acc + List.length g.links) 0 groups;
    } )

let group_packages ?linking pkgs = fst (group_packages_with_stats ?linking pkgs)

(* Retarget the exit blocks chosen by links, the first link of an exit
   winning, in a copy of the block array; a package without outgoing
   links is returned as it is. *)
let apply groups =
  let retarget ordered links posn (p : Pkg.t) =
    match List.filter (fun l -> l.from_pkg = posn) links with
    | [] -> p
    | mine ->
      let blocks = Array.copy p.Pkg.blocks in
      let linked = Array.make (Array.length blocks) false in
      List.iter
        (fun l ->
          match l.site.Pkg.cold_exit with
          | Some x when blocks.(x).Pkg.is_exit && not linked.(x) ->
            linked.(x) <- true;
            let label = ordered.(l.to_pkg).Pkg.blocks.(l.to_block).Pkg.label in
            let term = Pkg.Link { pkg = l.to_pkg; block = l.to_block; label } in
            blocks.(x) <- { (blocks.(x)) with Pkg.term }
          | _ -> ())
        mine;
      { p with Pkg.blocks }
  in
  List.concat_map
    (fun g ->
      let ordered = Array.of_list g.ordered in
      List.mapi (retarget ordered g.links) g.ordered)
    groups
