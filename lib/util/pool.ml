(* A parallel map on OCaml 5 domains.

   [jobs <= 1] runs the items in order on the calling domain: the
   reference sequential schedule.  Otherwise the caller and up to
   [jobs - 1] spawned domains claim item indices from one atomic
   counter, so there is no queue to lock and no worker to wake.
   Results and exceptions land in per-index slots, which makes the
   gather schedule-independent.  A map called from inside an item of a
   parallel map runs in order on that item's domain: a task that maps
   again (Fig 10 timing inside a bench or report task) keeps the outer
   map's domain count. *)

let default_jobs () = Domain.recommended_domain_count ()

(* Set while a domain runs items of a parallel {!map}: for good on the
   domains it spawns, which end with their worker loop, and for the
   length of the map on the caller. *)
let worker_domain = Domain.DLS.new_key (fun () -> false)

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
  if jobs <= 1 || Domain.DLS.get worker_domain then
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
    let spawn () =
      Domain.spawn (fun () ->
          Domain.DLS.set worker_domain true;
          worker ())
    in
    (* The caller is one of the workers: it spawns one domain fewer,
       and its items keep using its domain-local caches (compiled
       images, timing models, machine states). *)
    let helpers =
      List.init (Stdlib.max 0 (Stdlib.min jobs n - 1)) (fun _ -> spawn ())
    in
    Domain.DLS.set worker_domain true;
    worker ();
    Domain.DLS.set worker_domain false;
    List.iter Domain.join helpers
  end;
  Array.iter (function Some e -> raise e | None -> ()) errors;
  Array.to_list (Array.map Option.get results)
