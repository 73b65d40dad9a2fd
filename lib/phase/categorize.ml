module Snapshot = Vp_hsd.Snapshot

type category =
  | Unique_biased
  | Unique_unbiased
  | Multi_high
  | Multi_low
  | Multi_same
  | Multi_no_bias
  | Uncaptured

let all_categories =
  [
    Unique_biased;
    Unique_unbiased;
    Multi_high;
    Multi_low;
    Multi_same;
    Multi_no_bias;
    Uncaptured;
  ]

let category_name = function
  | Unique_biased -> "unique biased"
  | Unique_unbiased -> "unique unbiased"
  | Multi_high -> "multi high"
  | Multi_low -> "multi low"
  | Multi_same -> "multi same"
  | Multi_no_bias -> "multi no bias"
  | Uncaptured -> "uncaptured"

let biased threshold f = f >= threshold || f <= 1.0 -. threshold

let of_branch ?(bias_threshold = 0.9) fractions =
  match fractions with
  | [] -> Vp_util.Error.failf ~stage:"categorize" "of_branch: no phases"
  | [ f ] -> if biased bias_threshold f then Unique_biased else Unique_unbiased
  | fs ->
    if not (List.exists (biased bias_threshold) fs) then Multi_no_bias
    else
      let swing = List.fold_left max neg_infinity fs -. List.fold_left min infinity fs in
      if swing > 0.7 then Multi_high
      else if swing > 0.4 then Multi_low
      else Multi_same

let per_branch_fractions log =
  let table : (int, float list) Hashtbl.t = Hashtbl.create 256 in
  List.iter
    (fun (p : Phase_log.phase) ->
      List.iter
        (fun e ->
          let fs = Option.value ~default:[] (Hashtbl.find_opt table e.Snapshot.pc) in
          Hashtbl.replace table e.Snapshot.pc (Snapshot.taken_fraction e :: fs))
        p.Phase_log.representative.Snapshot.branches)
    (Phase_log.phases log);
  table

let classify ?bias_threshold log =
  let table = per_branch_fractions log in
  Hashtbl.fold (fun pc fs acc -> (pc, of_branch ?bias_threshold fs) :: acc) table []
  |> List.sort compare

type weights = (category * float) list

let weighted ?bias_threshold log ~dynamic =
  let categories = classify ?bias_threshold log in
  let category_of = Hashtbl.create 256 in
  List.iter (fun (pc, c) -> Hashtbl.replace category_of pc c) categories;
  let totals = Hashtbl.create 8 in
  let grand = ref 0 in
  Vp_exec.Branch_profile.iter
    (fun ~pc ~executed ~taken:_ ->
      let c =
        Option.value ~default:Uncaptured (Hashtbl.find_opt category_of pc)
      in
      grand := !grand + executed;
      Hashtbl.replace totals c
        (executed + Option.value ~default:0 (Hashtbl.find_opt totals c)))
    dynamic;
  List.map
    (fun c ->
      let n = Option.value ~default:0 (Hashtbl.find_opt totals c) in
      (c, Vp_util.Stats.pct n !grand))
    all_categories
