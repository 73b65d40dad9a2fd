type t = {
  sets : int;
  assoc : int;
  counter_bits : int;
  candidate_threshold : int;
  refresh_interval : int;
  clear_interval : int;
  hdc_bits : int;
  hdc_inc : int;
  hdc_dec : int;
}

let default =
  {
    sets = 512;
    assoc = 4;
    counter_bits = 9;
    candidate_threshold = 16;
    refresh_interval = 8192;
    clear_interval = 65526;
    hdc_bits = 13;
    hdc_inc = 2;
    hdc_dec = 1;
  }

let tiny =
  {
    default with
    sets = 1;
    assoc = 4;
    candidate_threshold = 4;
    refresh_interval = 256;
    clear_interval = 2048;
    hdc_bits = 8;
  }

let capacity t = t.sets * t.assoc

let hdc_max t = (1 lsl t.hdc_bits) - 1

let validate t =
  let err fmt = Printf.ksprintf (fun s -> Error s) fmt in
  if t.sets <= 0 then err "sets must be positive"
  else if t.sets land (t.sets - 1) <> 0 then err "sets must be a power of two"
  else if t.assoc <= 0 then err "assoc must be positive"
  else if t.counter_bits <= 0 || t.counter_bits >= 62 then err "bad counter width"
  else if t.candidate_threshold <= 0 then err "candidate threshold must be positive"
  else if t.candidate_threshold > (1 lsl t.counter_bits) - 1 then
    err "candidate threshold exceeds counter range"
  else if t.refresh_interval <= 0 || t.clear_interval <= 0 then err "bad timer interval"
  else if t.hdc_bits <= 0 || t.hdc_bits >= 62 then err "bad HDC width"
  else if t.hdc_inc <= 0 || t.hdc_dec <= 0 then err "HDC steps must be positive"
  else Ok ()
