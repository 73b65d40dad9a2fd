let schema = "vp-retire-trace/1"
let header = schema ^ "\n"

type t = {
  image_size : int;
  instructions : int;
  pcs : int array;
  takens : bool array;
}

let length t = Array.length t.pcs

let events t = Array.init (length t) (fun i -> (t.pcs.(i), t.takens.(i)))

let of_events ?(image_size = 0) ?(instructions = 0) evs =
  let n = Array.length evs in
  let pcs = Array.make n 0 and takens = Array.make n false in
  Array.iteri
    (fun i (pc, taken) ->
      if pc < 0 then invalid_arg "Trace.of_events: negative pc";
      pcs.(i) <- pc;
      takens.(i) <- taken)
    evs;
  { image_size; instructions; pcs; takens }

let record ?backend ?fuel ?mem_words image =
  let pcs = ref [] and n = ref 0 in
  let on_branch ~pc ~taken =
    incr n;
    pcs := (pc, taken) :: !pcs
  in
  let outcome =
    Vp_exec.Emulator.run_backend ?backend ?fuel ?mem_words ~on_branch image
  in
  let evs = Array.make !n (0, false) in
  List.iteri (fun i e -> evs.(!n - 1 - i) <- e) !pcs;
  ( of_events ~image_size:(Vp_prog.Image.size image)
      ~instructions:outcome.Vp_exec.Emulator.instructions evs,
    outcome )

let prefix t n =
  let n = max 0 (min n (length t)) in
  let instructions =
    if length t = 0 then 0 else t.instructions * n / length t
  in
  {
    image_size = t.image_size;
    instructions;
    pcs = Array.sub t.pcs 0 n;
    takens = Array.sub t.takens 0 n;
  }

let equal a b =
  a.image_size = b.image_size
  && a.instructions = b.instructions
  && a.pcs = b.pcs && a.takens = b.takens

(* Varints only carry non-negative values and deltas between branch
   pcs go both ways, so each delta is zigzagged first. *)
open Vp_util.Codec

(* ---- encoding ---- *)

let chunk_events = 4096

let encode t =
  let n = length t in
  let body = Buffer.create (16 + (2 * n)) in
  Buffer.add_char body 'M';
  put_varint body t.image_size;
  put_varint body t.instructions;
  put_varint body n;
  let prev = ref 0 in
  let i = ref 0 in
  while !i < n do
    let count = min chunk_events (n - !i) in
    Buffer.add_char body 'C';
    put_varint body count;
    for k = !i to !i + count - 1 do
      let pc = t.pcs.(k) in
      let bit = if t.takens.(k) then 1 else 0 in
      put_varint body ((zigzag (pc - !prev) lsl 1) lor bit);
      prev := pc
    done;
    i := !i + count
  done;
  let body = Buffer.contents body in
  let out = Buffer.create (String.length header + String.length body + 16) in
  Buffer.add_string out header;
  Buffer.add_string out body;
  Buffer.add_char out 'E';
  put_varint out n;
  put_varint out (fnv1a body ~pos:0 ~len:(String.length body));
  Buffer.contents out

(* ---- decoding ---- *)

let decode_exn s =
  let hn = String.length header in
  if String.length s < hn || String.sub s 0 hn <> header then
    malformed "missing %s header" schema;
  let n = String.length s in
  let pos = ref hn in
  let body_start = hn in
  if !pos >= n || s.[!pos] <> 'M' then
    malformed "missing metadata record at byte %d" !pos;
  incr pos;
  let image_size = get_varint s pos in
  let instructions = get_varint s pos in
  let total = get_varint s pos in
  (* Every event costs at least one body byte, so a hostile count
     cannot force a huge allocation. *)
  if total > n - !pos then
    malformed "declared %d events exceeds the %d remaining bytes" total
      (n - !pos);
  let pcs = Array.make total 0 in
  let takens = Array.make total false in
  let filled = ref 0 in
  let prev = ref 0 in
  let fin = ref false in
  while not !fin do
    if !pos >= n then malformed "truncated stream: no trailer";
    match s.[!pos] with
    | 'C' ->
      incr pos;
      let count = get_varint s pos in
      if !filled + count > total then
        malformed "chunk at byte %d overflows the declared %d events"
          (!pos - 1) total;
      for _ = 1 to count do
        let v = get_varint s pos in
        let pc = !prev + unzigzag (v lsr 1) in
        if pc < 0 then
          malformed "event %d: pc delta walks before address 0" !filled;
        if image_size > 0 && pc >= image_size then
          malformed "event %d: pc %d outside the declared image size %d"
            !filled pc image_size;
        pcs.(!filled) <- pc;
        takens.(!filled) <- v land 1 = 1;
        prev := pc;
        incr filled
      done
    | 'E' ->
      let body_len = !pos - body_start in
      incr pos;
      let count = get_varint s pos in
      let sum = get_varint s pos in
      if count <> total then
        malformed "trailer counts %d events, metadata declares %d" count
          total;
      if !filled <> total then
        malformed "stream carries %d events, metadata declares %d" !filled
          total;
      let actual = fnv1a s ~pos:body_start ~len:body_len in
      if sum <> actual then malformed "checksum mismatch";
      if !pos <> n then malformed "%d trailing bytes after trailer" (n - !pos);
      fin := true
    | c -> malformed "unknown record tag %C at byte %d" c !pos
  done;
  { image_size; instructions; pcs; takens }

(* Total over arbitrary input: [Malformed] carries the diagnosis; any
   other exception is a decoder bug, reported rather than re-raised. *)
let decode s =
  try Ok (decode_exn s) with
  | Malformed e -> Error e
  | exn -> Error ("decoder failure: " ^ Printexc.to_string exn)

let validate s = Result.map length (decode s)

let write_file ~path t = Vp_util.Io.write_file path (encode t)

let read_file ~path =
  match Vp_util.Io.read_file path with
  | s -> decode s
  | exception Sys_error e -> Error (Vp_util.Io.error_reason ~path e)

let validate_file ~path = Result.map length (read_file ~path)
