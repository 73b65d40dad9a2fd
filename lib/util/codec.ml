(* The binary primitives of the repo's wire formats
   (vp-profile-wire/1, vp-retire-trace/1). *)

exception Malformed of string

let malformed fmt = Printf.ksprintf (fun s -> raise (Malformed s)) fmt

let put_varint buf v =
  if v < 0 then invalid_arg "Codec.put_varint: negative";
  let rec go v =
    if v < 0x80 then Buffer.add_char buf (Char.chr v)
    else begin
      Buffer.add_char buf (Char.chr (0x80 lor (v land 0x7f)));
      go (v lsr 7)
    end
  in
  go v

let get_varint s pos =
  let n = String.length s in
  let acc = ref 0 and shift = ref 0 and p = ref !pos and fin = ref false in
  while not !fin do
    if !p >= n then malformed "truncated varint at byte %d" !p;
    if !shift > 56 then malformed "varint overflow at byte %d" !pos;
    let b = Char.code s.[!p] in
    let bits = b land 0x7f in
    (* The 9th byte sits at shift 56 and may only carry the 6 value
       bits 56..61: anything above wraps into the native int's sign
       bit and would decode as an accepted negative value. *)
    if !shift = 56 && bits > 0x3f then
      malformed "varint overflow at byte %d" !pos;
    acc := !acc lor (bits lsl !shift);
    incr p;
    if b < 0x80 then fin := true else shift := !shift + 7
  done;
  pos := !p;
  !acc

let zigzag v = (v lsl 1) lxor (v asr 62)
let unzigzag z = (z lsr 1) lxor (-(z land 1))

let fnv1a s ~pos ~len =
  let h = ref 0xbf29ce484222325 in
  for i = pos to pos + len - 1 do
    h := (!h lxor Char.code s.[i]) * 0x100000001b3
  done;
  !h land max_int
