(* Struct of arrays, one slot per way, set-major: [tag], [executed] and
   [taken] hold a way's branch and counters, [state] whether it is
   invalid, a non-candidate or a candidate.  The per-branch path reads and
   writes these int arrays only — no option, tuple or closure — so
   [record] allocates nothing. *)

type t = {
  set_mask : int;  (* [sets - 1]: {!Config.validate} requires a power of two *)
  assoc : int;
  max_value : int;
  threshold : int;
  tag : int array;
  executed : int array;
  taken : int array;
  state : int array;
}

type verdict = Candidate | Non_candidate | Dropped

let invalid = 0
let non_candidate = 1
let candidate = 2

(* Unchecked accesses on the per-branch path: every index is a way
   number below the capacity. *)
external ( .!() ) : int array -> int -> int = "%array_unsafe_get"
external ( .!()<- ) : int array -> int -> int -> unit = "%array_unsafe_set"

let create (config : Config.t) =
  (match Config.validate config with
  | Ok () -> ()
  | Error e -> Vp_util.Error.failf ~stage:"detector" "Bbb.create: %s" e);
  let n = Config.capacity config in
  {
    set_mask = config.Config.sets - 1;
    assoc = config.Config.assoc;
    max_value = (1 lsl config.Config.counter_bits) - 1;
    threshold = config.Config.candidate_threshold;
    tag = Array.make n 0;
    executed = Array.make n 0;
    taken = Array.make n 0;
    state = Array.make n invalid;
  }

(* The first way of [pc]'s set (pcs are never negative). *)
let set_base t pc = (pc land t.set_mask) * t.assoc

(* The way of set [base .. hi] holding [pc], or -1. *)
let find_way t pc base hi =
  let i = ref base in
  while !i <= hi && (t.state.!(!i) = invalid || t.tag.!(!i) <> pc) do
    incr i
  done;
  if !i <= hi then !i else -1

(* The first way of the set in state [s], or -1. *)
let rec find_state t s i hi =
  if i > hi then -1 else if t.state.!(i) = s then i else find_state t s (i + 1) hi

(* One retirement into way [i]: [Vp_util.Counter.record]'s arithmetic
   — at the executed maximum both counters halve first, so the taken
   fraction survives saturation — then candidacy, which is sticky. *)
let bump t i ~taken =
  let e = t.executed.!(i) in
  if e >= t.max_value then begin
    t.executed.!(i) <- (e / 2) + 1;
    t.taken.!(i) <- (t.taken.!(i) / 2) + Bool.to_int taken
  end
  else begin
    t.executed.!(i) <- e + 1;
    if taken then t.taken.!(i) <- t.taken.!(i) + 1
  end;
  if t.state.!(i) = candidate then Candidate
  else if t.executed.!(i) >= t.threshold then begin
    t.state.!(i) <- candidate;
    Candidate
  end
  else Non_candidate

(* A way for [pc] in set [base .. hi]: a free one (installed as a
   non-candidate), else a non-candidate to evict; its counters start
   at zero.  -1 when every way holds a candidate. *)
let install t pc base hi =
  let i = find_state t invalid base hi in
  let i =
    if i >= 0 then begin
      t.state.!(i) <- non_candidate;
      i
    end
    else find_state t non_candidate base hi
  in
  if i >= 0 then begin
    t.tag.!(i) <- pc;
    t.executed.!(i) <- 0;
    t.taken.!(i) <- 0
  end;
  i

let record t ~pc ~taken =
  let base = set_base t pc in
  let hi = base + t.assoc - 1 in
  let i = find_way t pc base hi in
  let i = if i >= 0 then i else install t pc base hi in
  if i < 0 then Dropped else bump t i ~taken

let refresh t =
  for i = 0 to Array.length t.state - 1 do
    if t.state.!(i) = non_candidate then begin
      t.executed.!(i) <- 0;
      t.taken.!(i) <- 0
    end
  done

(* Counters of invalid ways are never read: installing a way zeroes
   them. *)
let clear t = Array.fill t.state 0 (Array.length t.state) invalid

let snapshot_entries t =
  let acc = ref [] in
  for i = Array.length t.state - 1 downto 0 do
    if t.state.(i) = candidate then
      acc :=
        { Snapshot.pc = t.tag.(i); executed = t.executed.(i); taken = t.taken.(i) }
        :: !acc
  done;
  List.sort (fun (a : Snapshot.entry) b -> compare a.Snapshot.pc b.Snapshot.pc) !acc

let count t p = Array.fold_left (fun acc s -> if p s then acc + 1 else acc) 0 t.state
let occupancy t = count t (fun s -> s <> invalid)
let candidates t = count t (fun s -> s = candidate)

let tracked t ~pc =
  let base = set_base t pc in
  find_way t pc base (base + t.assoc - 1) >= 0
