type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let create ~seed = { state = Int64.of_int seed }

(* splitmix64 finaliser: mixes the incremented counter into an
   avalanche-quality output word. *)
let mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let next64 t =
  t.state <- Int64.add t.state golden_gamma;
  mix t.state

let next t = Int64.to_int (Int64.shift_right_logical (next64 t) 2)

let int t bound =
  assert (bound > 0);
  next t mod bound

let int_in t lo hi =
  assert (lo <= hi);
  lo + int t (hi - lo + 1)

let float t = Stdlib.float_of_int (next t) /. 4611686018427387904.0

let bool t p = float t < p

let split t =
  let seed = next t in
  create ~seed

(* Keyed derivation: a pure function of (parent state, key).  Unlike
   {!split} it does not advance the parent, so sibling streams are
   identical no matter which order — or on which domain — they are
   created.  Two mixing rounds keep nearby keys decorrelated. *)
let stream t key =
  let z =
    Int64.add t.state (Int64.mul golden_gamma (Int64.of_int (key + 1)))
  in
  { state = mix (mix z) }

let stream_seed t key = Int64.to_int (Int64.shift_right_logical (stream t key).state 2)
