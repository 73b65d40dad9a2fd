module Snapshot = Vp_hsd.Snapshot
module Counter = Vp_util.Counter

type entry = {
  pc : int;
  obs : int;
  executed : int;
  taken : int;
  censored : int;
}

type t = {
  counter_max : int;
  weight : int;
  runs : int;
  snapshots : int;
  entries : entry list;
}

let empty ~counter_max =
  if counter_max <= 0 then
    Vp_util.Error.failf ~stage:"aggregate" "counter_max must be positive (got %d)"
      counter_max;
  { counter_max; weight = 0; runs = 0; snapshots = 0; entries = [] }

(* One snapshot entry becomes one observation.  Counts outside the
   hardware's range (wire files, faulted streams) clamp through the
   shared saturating-add primitive; clamping at the cap is itself a
   censored observation — the count certainly reached the cap. *)
let observation ~counter_max (e : Snapshot.entry) =
  let executed = Counter.saturating_add ~max:counter_max e.Snapshot.executed 0 in
  let taken = min (Counter.saturating_add ~max:counter_max e.Snapshot.taken 0) executed in
  {
    pc = e.Snapshot.pc;
    obs = 1;
    executed;
    taken;
    censored = (if executed >= counter_max then 1 else 0);
  }

let combine a b =
  {
    pc = a.pc;
    obs = a.obs + b.obs;
    executed = a.executed + b.executed;
    taken = a.taken + b.taken;
    censored = a.censored + b.censored;
  }

(* Merge-join two strictly-ascending entry lists, summing on equal
   pcs.  Tail-recursive: fleet profiles can hold every branch of a
   large image. *)
let merge_entries xs ys =
  let rec go acc xs ys =
    match (xs, ys) with
    | [], rest | rest, [] -> List.rev_append acc rest
    | x :: xs', y :: ys' ->
      if x.pc < y.pc then go (x :: acc) xs' ys
      else if y.pc < x.pc then go (y :: acc) xs ys'
      else go (combine x y :: acc) xs' ys'
  in
  go [] xs ys

(* Snapshot entries are ascending by pc (the hardware invariant), but
   wire-ingested streams are untrusted: sort, then coalesce duplicate
   pcs so the result is strictly ascending — canonical form. *)
let obs_of_snapshot ~counter_max (s : Snapshot.t) =
  let sorted =
    List.sort
      (fun (a : Snapshot.entry) b -> compare a.Snapshot.pc b.Snapshot.pc)
      s.Snapshot.branches
  in
  List.fold_left
    (fun acc e ->
      let o = observation ~counter_max e in
      match acc with
      | prev :: rest when prev.pc = o.pc -> combine prev o :: rest
      | _ -> o :: acc)
    [] sorted
  |> List.rev

let of_snapshots ?(weight = 1) ~counter_max snaps =
  let base = empty ~counter_max in
  let entries =
    List.fold_left
      (fun acc s -> merge_entries acc (obs_of_snapshot ~counter_max s))
      [] snaps
  in
  {
    base with
    weight = max 0 weight;
    runs = 1;
    snapshots = List.length snaps;
    entries;
  }

let merge a b =
  if a.counter_max <> b.counter_max then
    Vp_util.Error.failf ~stage:"aggregate"
      "cannot merge profiles with counter caps %d and %d" a.counter_max
      b.counter_max;
  {
    counter_max = a.counter_max;
    weight = a.weight + b.weight;
    runs = a.runs + b.runs;
    snapshots = a.snapshots + b.snapshots;
    entries = merge_entries a.entries b.entries;
  }

let estimated_executed t e = e.executed + (e.censored * t.counter_max)

let taken_fraction e =
  if e.executed = 0 then 0.0
  else float_of_int e.taken /. float_of_int e.executed

let branch_count t = List.length t.entries

let total_estimated t =
  List.fold_left (fun acc e -> acc + estimated_executed t e) 0 t.entries

let to_snapshot ?(id = 0) ?scale_to t =
  let scale_to = Option.value ~default:t.counter_max scale_to in
  let peak =
    List.fold_left (fun acc e -> max acc (estimated_executed t e)) 0 t.entries
  in
  let branches =
    if peak = 0 then []
    else
      List.filter_map
        (fun e ->
          let est = estimated_executed t e in
          let executed = est * scale_to / peak in
          if executed <= 0 then None
          else
            let taken =
              min executed
                (int_of_float
                   (Float.round (taken_fraction e *. float_of_int executed)))
            in
            Some { Snapshot.pc = e.pc; executed; taken })
        t.entries
  in
  { Snapshot.id; detected_at = 0; ended_at = max 1 t.snapshots; branches }

(* FNV-1a over the canonical field sequence, masked to stay a
   non-negative OCaml int. *)
let digest t =
  let h = ref 0xbf29ce484222325 in
  let mix v =
    (* Feed the int byte by byte so entry boundaries cannot alias. *)
    for shift = 0 to 7 do
      let byte = (v lsr (shift * 8)) land 0xff in
      h := (!h lxor byte) * 0x100000001b3
    done
  in
  mix t.counter_max;
  mix t.weight;
  mix t.runs;
  mix t.snapshots;
  List.iter
    (fun e ->
      mix e.pc;
      mix e.obs;
      mix e.executed;
      mix e.taken;
      mix e.censored)
    t.entries;
  !h land max_int
