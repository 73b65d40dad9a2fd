(* A parallel map on OCaml 5 domains.

   [jobs <= 1] runs the items in order on the calling domain: the
   reference sequential schedule.  Otherwise up to [jobs] spawned
   domains claim item indices from one atomic counter, so there is no
   queue to lock and no worker to wake.  Results and exceptions land
   in per-index slots, which makes the gather schedule-independent. *)

type hooks = {
  on_submit : depth:int -> unit;
  on_start : domain:int -> depth:int -> unit;
  on_finish : domain:int -> unit;
}

let default_jobs () = Domain.recommended_domain_count ()

let map ~jobs ?hooks f items =
  let items = Array.of_list items in
  let n = Array.length items in
  let results = Array.make n None in
  let errors = Array.make n None in
  (* [domain] is the dense worker slot (0 in sequential mode), not
     [Domain.self]. *)
  let run ~domain ~depth i =
    (match hooks with Some h -> h.on_start ~domain ~depth | None -> ());
    (match f items.(i) with
    | v -> results.(i) <- Some v
    | exception e -> errors.(i) <- Some e);
    match hooks with Some h -> h.on_finish ~domain | None -> ()
  in
  if jobs <= 1 then
    for i = 0 to n - 1 do
      (match hooks with Some h -> h.on_submit ~depth:0 | None -> ());
      run ~domain:0 ~depth:0 i
    done
  else begin
    (match hooks with
    | Some h ->
      for i = 1 to n do
        h.on_submit ~depth:i
      done
    | None -> ());
    let next = Atomic.make 0 in
    let rec worker domain =
      let i = Atomic.fetch_and_add next 1 in
      if i < n then begin
        run ~domain ~depth:(n - i - 1) i;
        worker domain
      end
    in
    List.iter Domain.join
      (List.init (Stdlib.min jobs n) (fun d ->
           Domain.spawn (fun () -> worker d)))
  end;
  Array.iter (function Some e -> raise e | None -> ()) errors;
  Array.to_list (Array.map Option.get results)
