type ('k, 'v) t = {
  same : 'k -> 'k -> bool;
  entries : ('k * 'v) list ref Domain.DLS.key;
}

let create ?(same = ( == )) () =
  { same; entries = Domain.DLS.new_key (fun () -> ref []) }

(* Most recent first; at most two entries.  A hit on the older entry
   moves it to the front, so two keys used alternately both stay. *)
let find_or_add memo key compute =
  let slot = Domain.DLS.get memo.entries in
  match !slot with
  | (k, v) :: _ when memo.same k key -> v
  | [ newer; ((k, v) as older) ] when memo.same k key ->
    slot := [ older; newer ];
    v
  | entries ->
    let v = compute key in
    slot :=
      (key, v) :: (match entries with newest :: _ -> [ newest ] | [] -> []);
    v
