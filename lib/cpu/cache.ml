type t = {
  sets : int;
  assoc : int;
  line_bytes : int;
  line_shift : int;  (* log2 line_bytes, or -1 when not a power of two *)
  set_mask : int;  (* sets - 1, or -1 when sets is not a power of two *)
  tags : int array;  (* sets * assoc, -1 = invalid *)
  lru : int array;  (* higher = more recently used *)
  mru : int array;  (* per set: slot index of the most recent hit/fill *)
  mutable clock : int;
  mutable access_count : int;
  mutable miss_count : int;
}

(* log2 of a power of two, -1 otherwise: lets {!access} use shift/mask
   instead of hardware division on the usual geometries. *)
let log2_pow2 n =
  if n <= 0 || n land (n - 1) <> 0 then -1
  else begin
    let k = ref 0 in
    while 1 lsl !k < n do
      incr k
    done;
    !k
  end

let create (g : Config.cache_geometry) =
  let lines = g.Config.size_bytes / g.Config.line_bytes in
  let sets = max 1 (lines / g.Config.assoc) in
  {
    sets;
    assoc = g.Config.assoc;
    line_bytes = g.Config.line_bytes;
    line_shift = log2_pow2 g.Config.line_bytes;
    set_mask = (if log2_pow2 sets >= 0 then sets - 1 else -1);
    tags = Array.make (sets * g.Config.assoc) (-1);
    lru = Array.make (sets * g.Config.assoc) 0;
    mru = Array.init sets (fun s -> s * g.Config.assoc);
    clock = 0;
    access_count = 0;
    miss_count = 0;
  }

(* Unchecked array access for the per-instruction path: every index
   below is a set or slot number masked (or mod-reduced) into range,
   so the bounds checks only cost cycles. *)
external ( .!() ) : 'a array -> int -> 'a = "%array_unsafe_get"
external ( .!()<- ) : 'a array -> int -> 'a -> unit = "%array_unsafe_set"

let access t ~addr =
  t.access_count <- t.access_count + 1;
  t.clock <- t.clock + 1;
  let line =
    if t.line_shift >= 0 then addr lsr t.line_shift else addr / t.line_bytes
  in
  let set = if t.set_mask >= 0 then line land t.set_mask else line mod t.sets in
  (* Fast path: consecutive accesses overwhelmingly hit the line they
     hit last time (sequential fetch within a cache line, load/store
     streams).  Checking the set's most-recent slot first skips the
     associative scan without changing which tag matches. *)
  let m = t.mru.!(set) in
  if t.tags.!(m) = line then begin
    t.lru.!(m) <- t.clock;
    true
  end
  else begin
    let base = set * t.assoc in
    (* Plain int scan, no option: this runs once per simulated
       instruction fetch and once per memory access. *)
    let slot = ref (-1) in
    let i = ref 0 in
    while !slot < 0 && !i < t.assoc do
      if t.tags.!(base + !i) = line then slot := base + !i;
      incr i
    done;
    if !slot >= 0 then begin
      t.lru.!(!slot) <- t.clock;
      t.mru.!(set) <- !slot;
      true
    end
    else begin
      t.miss_count <- t.miss_count + 1;
      (* LRU victim (invalid slots have lru 0 and lose ties). *)
      let victim = ref base in
      for i = 1 to t.assoc - 1 do
        if t.lru.!(base + i) < t.lru.!(!victim) then victim := base + i
      done;
      t.tags.!(!victim) <- line;
      t.lru.!(!victim) <- t.clock;
      t.mru.!(set) <- !victim;
      false
    end
  end

(* Return the model to its post-{!create} state: all lines invalid,
   statistics zeroed.  Lets a pool reuse the multi-kilobyte tag/LRU
   arrays instead of reallocating them for every simulation. *)
let reset t =
  Array.fill t.tags 0 (Array.length t.tags) (-1);
  Array.fill t.lru 0 (Array.length t.lru) 0;
  Array.iteri (fun s _ -> t.mru.(s) <- s * t.assoc) t.mru;
  t.clock <- 0;
  t.access_count <- 0;
  t.miss_count <- 0

let line_index t addr =
  if t.line_shift >= 0 then addr lsr t.line_shift else addr / t.line_bytes

let accesses t = t.access_count
let misses t = t.miss_count
