(* A parallel map on OCaml 5 domains.

   [jobs <= 1] runs the items in order on the calling domain: the
   reference sequential schedule.  Otherwise up to [jobs] spawned
   domains claim item indices from one atomic counter, so there is no
   queue to lock and no worker to wake.  Results and exceptions land
   in per-index slots, which makes the gather schedule-independent. *)

let default_jobs () = Domain.recommended_domain_count ()

let map ~jobs f items =
  let items = Array.of_list items in
  let n = Array.length items in
  let results = Array.make n None in
  let errors = Array.make n None in
  let run i =
    match f items.(i) with
    | v -> results.(i) <- Some v
    | exception e -> errors.(i) <- Some e
  in
  if jobs <= 1 then
    for i = 0 to n - 1 do
      run i
    done
  else begin
    let next = Atomic.make 0 in
    let rec worker () =
      let i = Atomic.fetch_and_add next 1 in
      if i < n then begin
        run i;
        worker ()
      end
    in
    List.iter Domain.join
      (List.init (Stdlib.min jobs n) (fun _ -> Domain.spawn worker))
  end;
  Array.iter (function Some e -> raise e | None -> ()) errors;
  Array.to_list (Array.map Option.get results)
