let mean = function
  | [] -> 0.0
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let percentile xs p =
  match xs with
  | [] -> 0.0
  | xs ->
    let sorted = List.sort compare xs in
    let arr = Array.of_list sorted in
    let n = Array.length arr in
    let rank = int_of_float (ceil (p /. 100.0 *. float_of_int n)) in
    let idx = max 0 (min (n - 1) (rank - 1)) in
    arr.(idx)

let ratio num den = if den = 0 then 0.0 else float_of_int num /. float_of_int den

let pct num den = 100.0 *. ratio num den

let histogram ~bins ~lo ~hi xs =
  assert (bins > 0 && hi > lo);
  let counts = Array.make bins 0 in
  let width = (hi -. lo) /. float_of_int bins in
  let bucket x =
    let b = int_of_float ((x -. lo) /. width) in
    max 0 (min (bins - 1) b)
  in
  List.iter (fun x -> counts.(bucket x) <- counts.(bucket x) + 1) xs;
  counts
