module Reg = Vp_isa.Reg
module Image = Vp_prog.Image

exception Fault of string

type t = {
  regs : int array;
  memory : int array;
  stack_floor : int;
  mutable program_counter : int;
  mutable digest : int;
  dirty : int array;
  mutable n_dirty : int;  (* -1 once the journal overflows *)
}

let halt_address = -1

(* Unchecked array access for the per-instruction paths.  Register
   indices are in range by construction ([Reg.t] is a validated
   private int, [regs] has [Reg.count] slots); memory and journal
   indices are explicitly range-checked before the access. *)
external ( .!() ) : 'a array -> int -> 'a = "%array_unsafe_get"
external ( .!()<- ) : 'a array -> int -> 'a -> unit = "%array_unsafe_set"

(* Addresses at or above the floor are stack: private scratch whose
   stores (spills, frame locals) are not part of observable behaviour. *)
let stack_floor_of mem_words = mem_words - min (mem_words / 4) (1 lsl 16)

(* Dirty-word journal: while it has not overflowed, every memory word
   that is currently nonzero has its address recorded in
   [dirty.(0 .. n_dirty - 1)].  Words only become nonzero through
   {!set_mem}, the compiled backend's inline stores or the data
   initialisers in {!create}, all of which append to the journal on a
   zero-to-nonzero transition.  Reusing a
   released memory array then only has to re-zero the journaled words
   instead of memsetting the whole multi-megabyte array. *)
let dirty_cap = 1 lsl 16

(* Domain-local arena: the memory array is megabytes per state and
   every emulation run used to allocate a fresh one, making the
   allocator and major GC the dominant cost of short runs.  A state
   that provably dies (the emulator's own states, a halted session's)
   is handed back via {!release}; the next {!create} on this domain
   steals its memory array and scrubs it via the journal.  The arena
   keeps the [arena_slots] most recently released states, so a live
   session and the clean runs it checks against can both recycle.
   Steal-on-create removes the state from the arena first, so two live
   states can never alias one array, even if a callback starts a
   nested run. *)
let arena_slots = 2

let arena : t list ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref [])

let take_arena mem_words =
  let slot = Domain.DLS.get arena in
  match List.find_opt (fun s -> Array.length s.memory = mem_words) !slot with
  | Some old ->
    slot := List.filter (fun s -> s != old) !slot;
    let m = old.memory in
    if old.n_dirty < 0 then Array.fill m 0 mem_words 0
    else
      for i = 0 to old.n_dirty - 1 do
        m.!(old.dirty.!(i)) <- 0
      done;
    (m, old.dirty)
  | None -> (Array.make mem_words 0, Array.make dirty_cap 0)

let release t =
  let slot = Domain.DLS.get arena in
  slot := List.filteri (fun i _ -> i < arena_slots) (t :: !slot)

let journal t addr =
  if t.n_dirty >= 0 then begin
    if t.n_dirty < dirty_cap then begin
      t.dirty.!(t.n_dirty) <- addr;
      t.n_dirty <- t.n_dirty + 1
    end
    else t.n_dirty <- -1
  end

let create ~mem_words image =
  let regs = Array.make Reg.count 0 in
  regs.(Reg.to_int Reg.sp) <- mem_words;
  regs.(Reg.to_int Reg.ra) <- halt_address;
  let memory, dirty = take_arena mem_words in
  let t =
    {
      regs;
      memory;
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
      if memory.(addr) = 0 && v <> 0 then journal t addr;
      memory.(addr) <- v)
    image.Image.data_init;
  t

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
  if addr < 0 || addr >= Array.length t.memory then load_fault t addr
  else t.memory.!(addr)

let set_mem t addr v =
  if addr < 0 || addr >= Array.length t.memory then store_fault t addr
  else begin
    (* Zero-to-nonzero transition: this word must be journaled so the
       arena can scrub it.  Already-nonzero words are in the journal
       by the invariant above, and writing zero leaves nothing to
       scrub. *)
    if t.memory.!(addr) = 0 && v <> 0 then journal t addr;
    t.memory.!(addr) <- v
  end

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
