type entry = { pc : int; executed : int; taken : int }

type t = {
  id : int;
  detected_at : int;
  ended_at : int;
  branches : entry list;
}

let taken_fraction e =
  if e.executed = 0 then 0.0 else float_of_int e.taken /. float_of_int e.executed

type bias = Taken | Not_taken | Unbiased

let bias ?(threshold = 0.9) e =
  let f = taken_fraction e in
  if f >= threshold then Taken
  else if f <= 1.0 -. threshold then Not_taken
  else Unbiased

let branch_pcs t = List.map (fun e -> e.pc) t.branches

let find t pc = List.find_opt (fun e -> e.pc = pc) t.branches

let extent t = t.ended_at - t.detected_at
