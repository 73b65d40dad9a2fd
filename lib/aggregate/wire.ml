module Snapshot = Vp_hsd.Snapshot

let schema = "vp-profile-wire/1"
let header = schema ^ "\n"

type run = {
  run_id : int;
  weight : int;
  counter_max : int;
  snapshots : Snapshot.t list;
}

(* ---- primitives ---- *)

open Vp_util.Codec

(* A negative field is the caller's bug, reported as a typed
   [wire]-stage error rather than the codec's [Invalid_argument]. *)
let put_varint buf v =
  if v < 0 then
    Vp_util.Error.failf ~stage:"wire" "cannot encode negative integer %d" v;
  put_varint buf v

(* ---- encoding ---- *)

let encode_snapshot buf (s : Snapshot.t) =
  put_varint buf s.Snapshot.id;
  put_varint buf s.Snapshot.detected_at;
  put_varint buf s.Snapshot.ended_at;
  put_varint buf (List.length s.Snapshot.branches);
  let prev = ref (-1) in
  List.iter
    (fun (e : Snapshot.entry) ->
      let delta = e.Snapshot.pc - !prev in
      if delta <= 0 then
        Vp_util.Error.failf ~stage:"wire" ~pc:e.Snapshot.pc
          "snapshot %d: branch pcs not strictly ascending" s.Snapshot.id;
      (* First entry ships its pc + 1 (delta from the sentinel -1), so
         every on-wire delta is positive and pc 0 stays encodable. *)
      put_varint buf delta;
      put_varint buf e.Snapshot.executed;
      put_varint buf e.Snapshot.taken;
      prev := e.Snapshot.pc)
    s.Snapshot.branches

let encode runs =
  let body = Buffer.create 4096 in
  List.iter
    (fun r ->
      Buffer.add_char body 'R';
      put_varint body r.run_id;
      put_varint body r.weight;
      put_varint body r.counter_max;
      put_varint body (List.length r.snapshots);
      List.iter (encode_snapshot body) r.snapshots)
    runs;
  let body = Buffer.contents body in
  let out = Buffer.create (String.length header + String.length body + 16) in
  Buffer.add_string out header;
  Buffer.add_string out body;
  Buffer.add_char out 'E';
  put_varint out (List.length runs);
  put_varint out (fnv1a body ~pos:0 ~len:(String.length body));
  Buffer.contents out

(* ---- decoding ---- *)

let decode_snapshot s pos ~counter_max =
  let id = get_varint s pos in
  let detected_at = get_varint s pos in
  let ended_at = get_varint s pos in
  if ended_at < detected_at then
    malformed "snapshot %d: ended_at %d before detected_at %d" id ended_at
      detected_at;
  let nbranches = get_varint s pos in
  let prev = ref (-1) in
  let branches = ref [] in
  for _ = 1 to nbranches do
    let delta = get_varint s pos in
    if delta <= 0 then malformed "snapshot %d: non-ascending branch pc" id;
    let pc = !prev + delta in
    let executed = get_varint s pos in
    let taken = get_varint s pos in
    if executed > counter_max then
      malformed "snapshot %d pc %x: executed %d exceeds counter cap %d" id pc
        executed counter_max;
    if taken > executed then
      malformed "snapshot %d pc %x: taken %d exceeds executed %d" id pc taken
        executed;
    branches := { Snapshot.pc; executed; taken } :: !branches;
    prev := pc
  done;
  { Snapshot.id; detected_at; ended_at; branches = List.rev !branches }

let decode_exn s =
  let hn = String.length header in
  if String.length s < hn || String.sub s 0 hn <> header then
    malformed "missing %s header" schema;
  let pos = ref hn in
  let n = String.length s in
  let runs = ref [] in
  let body_start = hn in
  let fin = ref false in
  while not !fin do
    if !pos >= n then malformed "truncated stream: no trailer";
    match s.[!pos] with
    | 'R' ->
      incr pos;
      let run_id = get_varint s pos in
      let weight = get_varint s pos in
      let counter_max = get_varint s pos in
      if counter_max <= 0 then
        malformed "run %d: counter cap must be positive" run_id;
      let nsnaps = get_varint s pos in
      let snaps = ref [] in
      for _ = 1 to nsnaps do
        snaps := decode_snapshot s pos ~counter_max :: !snaps
      done;
      runs :=
        { run_id; weight; counter_max; snapshots = List.rev !snaps } :: !runs
    | 'E' ->
      let body_len = !pos - body_start in
      incr pos;
      let count = get_varint s pos in
      let sum = get_varint s pos in
      if count <> List.length !runs then
        malformed "trailer counts %d runs, stream carries %d" count
          (List.length !runs);
      let actual = fnv1a s ~pos:body_start ~len:body_len in
      if sum <> actual then malformed "checksum mismatch";
      if !pos <> n then malformed "%d trailing bytes after trailer" (n - !pos);
      fin := true
    | c -> malformed "unknown record tag %C at byte %d" c !pos
  done;
  List.rev !runs

(* Total over arbitrary input: [Malformed] carries the diagnosis; any
   other exception is a decoder bug, reported rather than re-raised so
   a hostile stream can never crash an ingesting process. *)
let decode s =
  try Ok (decode_exn s) with
  | Malformed e -> Error e
  | exn -> Error ("decoder failure: " ^ Printexc.to_string exn)

let write_file ~path runs = Vp_util.Io.write_file path (encode runs)

let read_file ~path =
  match Vp_util.Io.read_file path with
  | s -> decode s
  | exception Sys_error e -> Error (Vp_util.Io.error_reason ~path e)

let counts runs =
  (List.length runs, List.fold_left (fun acc r -> acc + List.length r.snapshots) 0 runs)

let validate s = Result.map counts (decode s)
let validate_file ~path = Result.map counts (read_file ~path)
