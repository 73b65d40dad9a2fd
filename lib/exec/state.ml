module Reg = Vp_isa.Reg
module Image = Vp_prog.Image

exception Fault of string

type t = {
  regs : int array;
  mutable data : int array;
  mutable stack : int array;
  mutable stack_base : int;
  mem_words : int;
  stack_floor : int;
  mutable program_counter : int;
  mutable digest : int;
  mutable dirty : int array;
  mutable n_dirty : int;  (* -1 once the journal overflows *)
}

let halt_address = -1

(* Unchecked array access for the per-instruction paths.  Register
   indices are in range by construction ([Reg.t] is a validated
   private int, [regs] has [Reg.count] slots); memory and journal
   indices are explicitly range-checked before the access. *)
external ( .!() ) : 'a array -> int -> 'a = "%array_unsafe_get"
external ( .!()<- ) : 'a array -> int -> 'a -> unit = "%array_unsafe_set"

(* Demand-sized memory: the programs the pipeline runs touch their
   globals at the bottom of memory and a few thousand words of stack at
   its top, out of [mem_words] (1M words by default).  So memory is two
   arrays: the data region [0, length data), sized from the image's
   [data_break], and the stack region [stack_base, mem_words), starting
   at [stack_init] words.  Words between them read 0; a nonzero store
   there grows the nearer region ({!grow}).  A hit in the data region
   costs one bounds test and one load. *)
let stack_init = 4096
let grow_min = 1024

(* Addresses at or above the floor are stack: private scratch whose
   stores (spills, frame locals) are not part of observable behaviour.
   The floor is architectural; [stack_base] is not. *)
let stack_floor_of mem_words = mem_words - min (mem_words / 4) (1 lsl 16)

(* Dirty-word journal: while it has not overflowed, every memory word
   that is currently nonzero has its address recorded in
   [dirty.(0 .. n_dirty - 1)].  Words only become nonzero through
   {!set_mem}, the compiled backend's inline stores or the data
   initialisers in {!create}, all of which append to the journal on a
   zero-to-nonzero transition.  Reusing a released state's regions
   then only has to re-zero the journaled words.  A word that turns
   nonzero again after a zero store is journaled again, so the journal
   can outgrow the memory it covers: it starts small and doubles only
   while it is shorter than both [dirty_cap] and the two regions
   together, and overflows after that, when scrubbing the regions
   whole costs no more than replaying it. *)
let dirty_cap = 1 lsl 16
let dirty_init = 256

(* Domain-local arena: every emulation run used to allocate its memory
   afresh, making the allocator and major GC the dominant cost of
   short runs.  A state that provably dies (the emulator's own states,
   a halted session's) is handed back via {!release}; the next {!create}
   on this domain steals its regions and journal and scrubs them via
   the journal.  The arena keeps the [arena_slots] most recently
   released states, so a live session and the clean runs it checks
   against can both recycle.  Steal-on-create removes the state from
   the arena first, so two live states can never alias one region, even
   if a callback starts a nested run. *)
let arena_slots = 2

let arena : t list ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref [])

let take_arena mem_words ~data_words =
  let slot = Domain.DLS.get arena in
  let fresh () =
    ( Array.make data_words 0,
      Array.make (min stack_init (max 0 mem_words - data_words)) 0,
      Array.make dirty_init 0 )
  in
  match List.find_opt (fun s -> s.mem_words = mem_words) !slot with
  | Some old ->
    slot := List.filter (fun s -> s != old) !slot;
    if old.n_dirty < 0 then begin
      Array.fill old.data 0 (Array.length old.data) 0;
      Array.fill old.stack 0 (Array.length old.stack) 0
    end
    else
      for i = 0 to old.n_dirty - 1 do
        let a = old.dirty.!(i) in
        if a < Array.length old.data then old.data.!(a) <- 0
        else old.stack.!(a - old.stack_base) <- 0
      done;
    if data_words > old.stack_base then fresh ()
    else
      ( (if Array.length old.data >= data_words then old.data
         else Array.make data_words 0),
        old.stack,
        old.dirty )
  | None -> fresh ()

let release t =
  let slot = Domain.DLS.get arena in
  slot := List.filteri (fun i _ -> i < arena_slots) (t :: !slot)

let journal t addr =
  let n = t.n_dirty in
  if n >= 0 then begin
    if
      n = Array.length t.dirty && n < dirty_cap
      && n < Array.length t.data + Array.length t.stack
    then begin
      let bigger = Array.make (2 * n) 0 in
      Array.blit t.dirty 0 bigger 0 n;
      t.dirty <- bigger
    end;
    if n < Array.length t.dirty then begin
      t.dirty.!(n) <- addr;
      t.n_dirty <- n + 1
    end
    else t.n_dirty <- -1
  end

(* Grow the region nearer to [addr], a word between the two, so that
   it covers [addr]: at least doubling it (by [grow_min] words at
   least), never into the other region. *)
let grow t addr =
  let d = Array.length t.data and sb = t.stack_base in
  if addr - d < sb - addr then begin
    let n = min sb (max (addr + 1) (max grow_min (2 * d))) in
    let a = Array.make n 0 in
    Array.blit t.data 0 a 0 d;
    t.data <- a
  end
  else begin
    let s = t.mem_words - sb in
    let n =
      min (t.mem_words - d) (max (t.mem_words - addr) (max grow_min (2 * s)))
    in
    let a = Array.make n 0 in
    Array.blit t.stack 0 a (n - s) s;
    t.stack <- a;
    t.stack_base <- t.mem_words - n
  end

let pc t = t.program_counter
let set_pc t v = t.program_counter <- v

let reg t r =
  let i = Reg.to_int r in
  if i = 0 then 0 else t.regs.!(i)

let set_reg t r v =
  let i = Reg.to_int r in
  if i <> 0 then t.regs.!(i) <- v

let load_fault t addr =
  raise
    (Fault
       (Printf.sprintf "load from %d out of range (pc=0x%x)" addr
          t.program_counter))

let store_fault t addr =
  raise
    (Fault
       (Printf.sprintf "store to %d out of range (pc=0x%x)" addr
          t.program_counter))

let mem t addr =
  if addr >= 0 && addr < Array.length t.data then t.data.!(addr)
  else if addr >= t.stack_base && addr < t.mem_words then
    t.stack.!(addr - t.stack_base)
  else if addr >= 0 && addr < t.mem_words then 0
  else load_fault t addr

(* Word [i] of [region], address [addr]: a zero-to-nonzero transition
   must be journaled so the arena can scrub it.  Already-nonzero words
   are in the journal by the invariant above, and writing zero leaves
   nothing to scrub. *)
let put t region i addr v =
  if region.!(i) = 0 && v <> 0 then journal t addr;
  region.!(i) <- v
[@@inline]

let rec set_mem t addr v =
  if addr >= 0 && addr < Array.length t.data then put t t.data addr addr v
  else if addr >= t.stack_base && addr < t.mem_words then
    put t t.stack (addr - t.stack_base) addr v
  else if addr < 0 || addr >= t.mem_words then store_fault t addr
  else if v <> 0 then begin
    (* Between the regions: zero over zero changes nothing. *)
    grow t addr;
    set_mem t addr v
  end

let create ~mem_words image =
  let regs = Array.make Reg.count 0 in
  regs.(Reg.to_int Reg.sp) <- mem_words;
  regs.(Reg.to_int Reg.ra) <- halt_address;
  let data_words = max 0 (min mem_words image.Image.data_break) in
  let data, stack, dirty = take_arena mem_words ~data_words in
  let t =
    {
      regs;
      data;
      stack;
      stack_base = mem_words - Array.length stack;
      mem_words;
      stack_floor = stack_floor_of mem_words;
      program_counter = image.Image.entry;
      digest = 0;
      dirty;
      n_dirty = 0;
    }
  in
  List.iter
    (fun (addr, v) ->
      if addr < 0 || addr >= mem_words then
        raise (Fault (Printf.sprintf "data initialiser at %d out of range" addr));
      set_mem t addr v)
    image.Image.data_init;
  t

let mix h v = (h * 31) + v

let bump_store_digest t addr v =
  if addr < t.stack_floor then t.digest <- mix (mix t.digest addr) v

(* The checksum compares semantic outcomes: the full store stream plus
   the result register.  Dead register values at halt are excluded —
   they legitimately differ once an optimizer sinks or deletes
   computations whose results the program never consumes (and the
   return-address register holds code addresses, which differ between
   an original binary and its packaged rewrite by construction). *)
let checksum t = mix t.digest t.regs.(Reg.to_int Reg.ret_value)
