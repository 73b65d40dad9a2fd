type t = {
  history_mask : int;
  mutable history : int;
  counters : int array;  (* 2-bit saturating *)
  btb_tags : int array;
  btb_targets : int array;
  btb_mask : int;  (* entries - 1 when a power of two, else -1 *)
  ras : int array;
  ras_mask : int;  (* entries - 1 when a power of two, else -1 *)
  mutable ras_top : int;  (* number of valid entries, wraps *)
  mutable n_branches : int;
  mutable n_mispredictions : int;
  mutable n_btb_lookups : int;
  mutable n_btb_misses : int;
  mutable n_returns : int;
  mutable n_ras_misses : int;
}

type stats = {
  branches : int;
  mispredictions : int;
  btb_lookups : int;
  btb_misses : int;
  returns : int;
  ras_misses : int;
}

let pow2_mask n = if n > 0 && n land (n - 1) = 0 then n - 1 else -1

(* Unchecked array access: every index below is masked (or
   mod-reduced) into the table's range first. *)
external ( .!() ) : 'a array -> int -> 'a = "%array_unsafe_get"
external ( .!()<- ) : 'a array -> int -> 'a -> unit = "%array_unsafe_set"

let create (cfg : Config.t) =
  let table_size = 1 lsl cfg.Config.gshare_history_bits in
  {
    history_mask = table_size - 1;
    history = 0;
    counters = Array.make table_size 1;
    btb_tags = Array.make cfg.Config.btb_entries (-1);
    btb_targets = Array.make cfg.Config.btb_entries 0;
    btb_mask = pow2_mask cfg.Config.btb_entries;
    ras = Array.make cfg.Config.ras_entries 0;
    ras_mask = pow2_mask cfg.Config.ras_entries;
    ras_top = 0;
    n_branches = 0;
    n_mispredictions = 0;
    n_btb_lookups = 0;
    n_btb_misses = 0;
    n_returns = 0;
    n_ras_misses = 0;
  }

(* Post-{!create} state, reusing the arrays (see {!Cache.reset}). *)
let reset t =
  t.history <- 0;
  Array.fill t.counters 0 (Array.length t.counters) 1;
  Array.fill t.btb_tags 0 (Array.length t.btb_tags) (-1);
  Array.fill t.btb_targets 0 (Array.length t.btb_targets) 0;
  Array.fill t.ras 0 (Array.length t.ras) 0;
  t.ras_top <- 0;
  t.n_branches <- 0;
  t.n_mispredictions <- 0;
  t.n_btb_lookups <- 0;
  t.n_btb_misses <- 0;
  t.n_returns <- 0;
  t.n_ras_misses <- 0

let predict_branch t ~pc ~taken =
  t.n_branches <- t.n_branches + 1;
  let index = (pc lxor t.history) land t.history_mask in
  let counter = t.counters.!(index) in
  let prediction = counter >= 2 in
  (* Saturating 2-bit update with int compares: [Stdlib.min]/[max] are
     polymorphic calls on this per-branch path. *)
  t.counters.!(index) <-
    (if taken then (if counter < 3 then counter + 1 else 3)
     else if counter > 0 then counter - 1
     else 0);
  t.history <- ((t.history lsl 1) lor if taken then 1 else 0) land t.history_mask;
  let correct = prediction = taken in
  if not correct then t.n_mispredictions <- t.n_mispredictions + 1;
  correct

let btb_lookup t ~pc ~target =
  t.n_btb_lookups <- t.n_btb_lookups + 1;
  let slot =
    if t.btb_mask >= 0 then pc land t.btb_mask
    else pc mod Array.length t.btb_tags
  in
  let hit = t.btb_tags.!(slot) = pc && t.btb_targets.!(slot) = target in
  if not hit then begin
    t.n_btb_misses <- t.n_btb_misses + 1;
    t.btb_tags.!(slot) <- pc;
    t.btb_targets.!(slot) <- target
  end;
  hit

let ras_slot t i =
  if t.ras_mask >= 0 then i land t.ras_mask else i mod Array.length t.ras

let call_push t ~return_addr =
  t.ras.!(ras_slot t t.ras_top) <- return_addr;
  t.ras_top <- t.ras_top + 1

let ret_predict t ~actual =
  t.n_returns <- t.n_returns + 1;
  let correct =
    if t.ras_top = 0 then false
    else begin
      t.ras_top <- t.ras_top - 1;
      t.ras.!(ras_slot t t.ras_top) = actual
    end
  in
  if not correct then t.n_ras_misses <- t.n_ras_misses + 1;
  correct

let stats t =
  {
    branches = t.n_branches;
    mispredictions = t.n_mispredictions;
    btb_lookups = t.n_btb_lookups;
    btb_misses = t.n_btb_misses;
    returns = t.n_returns;
    ras_misses = t.n_ras_misses;
  }
