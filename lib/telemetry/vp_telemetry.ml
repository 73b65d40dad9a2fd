(* Timeline internals.  Everything behind [on]: the disabled timeline
   has empty storage and every entry point tests [on] first.  A
   timeline is single-writer (one per run) so there is no locking;
   determinism across --jobs schedules follows from per-run ownership,
   not synchronisation. *)

let default_interval = 10_000

type series = { sname : string; mutable data : int array; mutable len : int }

type t = {
  on : bool;
  interval : int;
  name : string option;
  origin : int;
  mutable series : series array;
  mutable scount : int;
  sindex : (string, int) Hashtbl.t;
  (* Events in parallel growable arrays: (kind, at, value). *)
  mutable ekind : string array;
  mutable eat : int array;
  mutable evalue : int array;
  mutable ecount : int;
}

let make ?name ?(origin = 0) ~on ~interval () =
  {
    on;
    interval;
    name;
    origin;
    series = [||];
    scount = 0;
    sindex = Hashtbl.create 16;
    ekind = [||];
    eat = [||];
    evalue = [||];
    ecount = 0;
  }

let disabled = make ~on:false ~interval:default_interval ()

let create ?name ?origin metrics =
  match Vp_metrics.interval metrics with
  | None -> disabled
  | Some interval -> make ?name ?origin ~on:true ~interval ()

let enabled t = t.on
let interval_length t = t.interval
let name t = t.name

let intervals t =
  let n = ref 0 in
  for i = 0 to t.scount - 1 do
    if t.series.(i).len > !n then n := t.series.(i).len
  done;
  !n

module Series = struct
  type id = int

  let register t name =
    if not t.on then 0
    else
      match Hashtbl.find_opt t.sindex name with
      | Some id -> id
      | None ->
        if t.scount = Array.length t.series then begin
          let cap = Stdlib.max 8 (2 * t.scount) in
          let series =
            Array.init cap (fun i ->
                if i < t.scount then t.series.(i)
                else { sname = ""; data = [||]; len = 0 })
          in
          t.series <- series
        end;
        let id = t.scount in
        t.series.(id) <- { sname = name; data = Array.make 512 0; len = 0 };
        t.scount <- id + 1;
        Hashtbl.replace t.sindex name id;
        id

  let push t id v =
    if t.on then begin
      let s = t.series.(id) in
      if s.len = Array.length s.data then begin
        let data = Array.make (2 * s.len) 0 in
        Array.blit s.data 0 data 0 s.len;
        s.data <- data
      end;
      s.data.(s.len) <- v;
      s.len <- s.len + 1
    end

  let length t id = if t.on then t.series.(id).len else 0

  let values t id =
    if not t.on then [||]
    else
      let s = t.series.(id) in
      Array.sub s.data 0 s.len

  let names t =
    if not t.on then []
    else
      List.init t.scount (fun i -> t.series.(i).sname)
      |> List.sort String.compare

  let find t name =
    if not t.on then None
    else Option.map (values t) (Hashtbl.find_opt t.sindex name)
end

module Event = struct
  let emit t ~kind ~at ~value =
    if t.on then begin
      if t.ecount = Array.length t.ekind then begin
        let cap = Stdlib.max 64 (2 * t.ecount) in
        let grow a fill =
          let b = Array.make cap fill in
          Array.blit a 0 b 0 t.ecount;
          b
        in
        t.ekind <- grow t.ekind "";
        t.eat <- grow t.eat 0;
        t.evalue <- grow t.evalue 0
      end;
      t.ekind.(t.ecount) <- kind;
      t.eat.(t.ecount) <- at;
      t.evalue.(t.ecount) <- value;
      t.ecount <- t.ecount + 1
    end

  let all t =
    List.init t.ecount (fun i -> (t.ekind.(i), t.eat.(i), t.evalue.(i)))

  let count t ~kind =
    let n = ref 0 in
    for i = 0 to t.ecount - 1 do
      if String.equal t.ekind.(i) kind then incr n
    done;
    !n
end

module Sampler = struct
  (* [due] is the clock of the next interval boundary, [max_int] on the
     disabled timeline so no clock ever reaches it. *)
  type t = {
    interval : int;
    flush : int -> unit;
    mutable clock : int;
    mutable due : int;
  }

  let create tl ~flush =
    let interval = interval_length tl in
    let due = if enabled tl then interval else max_int in
    { interval; flush; clock = 0; due }

  let reach s c =
    while c >= s.due do
      s.due <- s.due + s.interval;
      s.flush s.interval
    done;
    s.clock <- c

  let advance s n = reach s (s.clock + n)
  let at s = s.clock + 1
  let finish s =
    let tail = s.clock - (s.due - s.interval) in
    if s.due < max_int && tail > 0 then s.flush tail
end

(* ---- Perfetto export ---- *)

(* The prefix of the first series: "profile", "run", "timing",
   "session". *)
let prefix t =
  if t.scount = 0 then None
  else
    let s = t.series.(0).sname in
    Some (match String.index_opt s '.' with Some i -> String.sub s 0 i | None -> s)

let label t =
  match (t.name, prefix t) with
  | Some n, _ | None, Some n -> n
  | None, None -> "timeline"

(* The instruction clock at the end of each interval: [origin] plus the
   running sum of the [<prefix>.instructions] series, or whole
   intervals where that series has no sample. *)
let clock t =
  let instrs =
    Option.bind (prefix t) (fun p -> Hashtbl.find_opt t.sindex (p ^ ".instructions"))
  in
  let acc = ref t.origin in
  Array.init (intervals t) (fun i ->
      (acc :=
         !acc
         +
         match instrs with
         | Some id when i < t.series.(id).len -> t.series.(id).data.(i)
         | _ -> t.interval);
      !acc)

let write_perfetto ~path ts =
  let live = List.filter (fun t -> t.on) ts in
  let points pid t =
    let ends = clock t in
    let counters =
      List.init t.scount (fun k ->
          let s = t.series.(k) in
          List.init s.len (fun j ->
              Vp_metrics.Perfetto.Counter
                { pid; name = s.sname; ts = ends.(j); value = s.data.(j) }))
    in
    let instants =
      List.init t.ecount (fun i ->
          Vp_metrics.Perfetto.Instant
            { pid; name = t.ekind.(i); ts = t.eat.(i); value = t.evalue.(i) })
    in
    List.concat counters @ instants
  in
  Vp_metrics.Perfetto.write
    ~processes:(List.mapi (fun i t -> (i + 1, label t)) live)
    ~points:(List.concat (List.mapi (fun i t -> points (i + 1) t) live))
    ~path []

module Render = struct
  let glyphs = " .:-=+*#"

  (* Map [0, n) columns onto [0, len) source intervals: column c
     covers [lo c, lo (c+1)). *)
  let bucket ~len ~width c = c * len / width

  let sparkline ?(width = 72) values =
    let len = Array.length values in
    if len = 0 then ""
    else begin
      let width = Stdlib.min width len in
      let mx = Array.fold_left Stdlib.max 1 values in
      String.init width (fun c ->
          let lo = bucket ~len ~width c in
          let hi = Stdlib.max (lo + 1) (bucket ~len ~width (c + 1)) in
          let m = ref 0 in
          for i = lo to Stdlib.min (hi - 1) (len - 1) do
            if values.(i) > !m then m := values.(i)
          done;
          (* 0 maps to ' '; any non-zero value renders at least '.'. *)
          if !m = 0 then glyphs.[0]
          else
            let level = 1 + (!m * (String.length glyphs - 2) / mx) in
            glyphs.[Stdlib.min level (String.length glyphs - 1)])
    end

  let lane_glyphs = " .:oO#"

  let lane ?(width = 72) ~total part =
    let len = Stdlib.min (Array.length total) (Array.length part) in
    if len = 0 then ""
    else begin
      let width = Stdlib.min width len in
      String.init width (fun c ->
          let lo = bucket ~len ~width c in
          let hi = Stdlib.max (lo + 1) (bucket ~len ~width (c + 1)) in
          let p = ref 0 and t = ref 0 in
          for i = lo to Stdlib.min (hi - 1) (len - 1) do
            p := !p + part.(i);
            t := !t + total.(i)
          done;
          if !t = 0 || !p = 0 then lane_glyphs.[0]
          else
            let f = float_of_int !p /. float_of_int !t in
            if f >= 0.9 then lane_glyphs.[5]
            else if f >= 0.5 then lane_glyphs.[4]
            else if f >= 0.25 then lane_glyphs.[3]
            else if f >= 0.05 then lane_glyphs.[2]
            else lane_glyphs.[1])
    end

  let extent_rows ?(width = 72) ~cum timeline =
    let len = Array.length cum in
    let ids =
      List.sort_uniq compare (List.map (fun (_, _, p) -> p) timeline)
    in
    if len = 0 then List.map (fun id -> (id, "")) ids
    else begin
      let width = Stdlib.min width len in
      (* Branch span of column c: [lo_branch, hi_branch). *)
      let col_span c =
        let lo = bucket ~len ~width c in
        let hi = Stdlib.max (lo + 1) (bucket ~len ~width (c + 1)) in
        let lo_branch = if lo = 0 then 0 else cum.(lo - 1) in
        let hi_branch = cum.(Stdlib.min (hi - 1) (len - 1)) in
        (lo_branch, hi_branch)
      in
      List.map
        (fun id ->
          let extents =
            List.filter_map
              (fun (s, e, p) -> if p = id then Some (s, e) else None)
              timeline
          in
          let row =
            String.init width (fun c ->
                let lo, hi = col_span c in
                if List.exists (fun (s, e) -> s < hi && e > lo) extents then '='
                else ' ')
          in
          (id, row))
        ids
    end
end
