(* Tests for vp_util: PRNG determinism, saturating counters, stats,
   table rendering, and the domain pool. *)

module Rng = Vp_util.Rng
module Counter = Vp_util.Counter
module Stats = Vp_util.Stats
module Tabular = Vp_util.Tabular
module Pool = Vp_util.Pool

let contains hay needle = Option.is_some (Vp_util.Io.find_sub hay needle)

let test_rng_determinism () =
  let a = Rng.create ~seed:42 in
  let b = Rng.create ~seed:42 in
  for _ = 1 to 100 do
    Alcotest.(check int) "same stream" (Rng.next a) (Rng.next b)
  done

let test_rng_different_seeds () =
  let a = Rng.create ~seed:1 in
  let b = Rng.create ~seed:2 in
  let same = ref 0 in
  for _ = 1 to 50 do
    if Rng.next a = Rng.next b then incr same
  done;
  Alcotest.(check bool) "streams diverge" true (!same < 5)

let test_rng_split_independent () =
  let a = Rng.create ~seed:7 in
  let b = Rng.split a in
  Alcotest.(check bool) "split differs from parent" true (Rng.next a <> Rng.next b)

let test_rng_bounds () =
  let r = Rng.create ~seed:3 in
  for _ = 1 to 1000 do
    let v = Rng.int r 10 in
    Alcotest.(check bool) "in [0,10)" true (v >= 0 && v < 10);
    let w = Rng.int_in r (-5) 5 in
    Alcotest.(check bool) "in [-5,5]" true (w >= -5 && w <= 5);
    let f = Rng.float r in
    Alcotest.(check bool) "in [0,1)" true (f >= 0.0 && f < 1.0)
  done

let test_rng_bool_probability () =
  let r = Rng.create ~seed:11 in
  let hits = ref 0 in
  let n = 20_000 in
  for _ = 1 to n do
    if Rng.bool r 0.3 then incr hits
  done;
  let f = float_of_int !hits /. float_of_int n in
  Alcotest.(check bool) "p close to 0.3" true (abs_float (f -. 0.3) < 0.02)

let test_counter_basic () =
  let c = Counter.create ~bits:9 in
  Counter.record c ~taken:true;
  Counter.record c ~taken:false;
  Counter.record c ~taken:true;
  Alcotest.(check int) "executed" 3 (Counter.executed c);
  Alcotest.(check int) "taken" 2 (Counter.taken c);
  Alcotest.(check (float 0.01)) "fraction" (2.0 /. 3.0) (Counter.taken_fraction c)

let test_counter_saturation_preserves_fraction () =
  let c = Counter.create ~bits:9 in
  for i = 1 to 5000 do
    Counter.record c ~taken:(i mod 4 <> 0)
  done;
  Alcotest.(check bool) "executed bounded" true
    (Counter.executed c <= Counter.max_value c);
  Alcotest.(check bool) "halvings happened" true (Counter.halvings c > 0);
  let f = Counter.taken_fraction c in
  Alcotest.(check bool) "fraction near 0.75" true (abs_float (f -. 0.75) < 0.05)

let test_counter_saturating_add () =
  Alcotest.(check int) "exact below the cap" 60
    (Counter.saturating_add ~max:511 25 35);
  Alcotest.(check int) "clamps at the cap" 511
    (Counter.saturating_add ~max:511 500 100);
  Alcotest.(check int) "negative operands read as zero" 5
    (Counter.saturating_add ~max:511 (-3) 5);
  (* The overflow case the old ad-hoc clamp got wrong: a sum that
     wraps past max_int must still saturate, not go negative. *)
  Alcotest.(check int) "wrap-around saturates" 511
    (Counter.saturating_add ~max:511 max_int max_int)

let test_counter_add_clamps () =
  let c = Counter.create ~bits:9 in
  Counter.add c ~executed:400 ~taken:300;
  Counter.add c ~executed:400 ~taken:300;
  Alcotest.(check int) "executed clamped at 511" 511 (Counter.executed c);
  Alcotest.(check bool) "pair invariant holds" true
    (Counter.taken c <= Counter.executed c);
  Alcotest.(check bool) "saturated" true (Counter.is_saturated c);
  (* Software merge clamps; it never halves like the hardware path. *)
  Alcotest.(check int) "no halvings" 0 (Counter.halvings c)

let test_counter_incr_noop_when_saturated () =
  let c = Counter.create ~bits:4 in
  for _ = 1 to 40 do
    Counter.incr c ~taken:true
  done;
  Alcotest.(check int) "executed stops at the cap" 15 (Counter.executed c);
  Alcotest.(check int) "taken stops with it" 15 (Counter.taken c);
  Counter.incr c ~taken:false;
  Alcotest.(check int) "saturated incr is a no-op" 15 (Counter.executed c)

let prop_counter_add_bounded =
  QCheck.Test.make ~name:"add clamps and keeps taken <= executed" ~count:200
    QCheck.(pair (list (pair (int_bound 700) (int_bound 700))) (int_range 2 12))
    (fun (steps, bits) ->
      let c = Counter.create ~bits in
      List.iter (fun (executed, taken) -> Counter.add c ~executed ~taken) steps;
      Counter.executed c <= Counter.max_value c
      && Counter.taken c <= Counter.executed c
      && Counter.taken c >= 0)

let test_counter_reset () =
  let c = Counter.create ~bits:4 in
  for _ = 1 to 100 do
    Counter.record c ~taken:true
  done;
  Counter.reset c;
  Alcotest.(check int) "executed zero" 0 (Counter.executed c);
  Alcotest.(check int) "halvings zero" 0 (Counter.halvings c)

let test_stats_mean () =
  Alcotest.(check (float 1e-9)) "mean" 2.0 (Stats.mean [ 1.0; 2.0; 3.0 ]);
  Alcotest.(check (float 1e-9)) "mean empty" 0.0 (Stats.mean [])

let test_stats_ratio_pct () =
  Alcotest.(check (float 1e-9)) "ratio" 0.5 (Stats.ratio 1 2);
  Alcotest.(check (float 1e-9)) "ratio zero den" 0.0 (Stats.ratio 1 0);
  Alcotest.(check (float 1e-9)) "pct" 25.0 (Stats.pct 1 4)

let test_tabular_render () =
  let t = Tabular.create ~header:[ ("name", Tabular.Left); ("val", Tabular.Right) ] in
  Tabular.add_row t [ "alpha"; "1" ];
  Tabular.add_row t [ "b"; "22" ];
  Tabular.add_separator t;
  Tabular.add_row t [ "short" ];
  let s = Tabular.render t in
  Alcotest.(check bool) "contains alpha" true (contains s "alpha");
  let lines = String.split_on_char '\n' s in
  let widths = List.map String.length lines in
  List.iter (fun w -> Alcotest.(check int) "uniform width" (List.hd widths) w) widths

let test_tabular_too_many_cells () =
  let t = Tabular.create ~header:[ ("a", Tabular.Left) ] in
  Alcotest.check_raises "too many cells" (Invalid_argument "Tabular.add_row: too many cells")
    (fun () -> Tabular.add_row t [ "x"; "y" ])

let test_tabular_cells () =
  Alcotest.(check string) "float" "3.1" (Tabular.cell_float 3.14159);
  Alcotest.(check string) "float decimals" "3.142" (Tabular.cell_float ~decimals:3 3.14159);
  Alcotest.(check string) "pct" "81.5" (Tabular.cell_pct 81.49)

let test_pool_map_ordered_gather () =
  let xs = List.init 100 (fun i -> i) in
  let expected = List.map (fun x -> x * x) xs in
  List.iter
    (fun jobs ->
      Alcotest.(check (list int))
        (Printf.sprintf "jobs=%d preserves order" jobs)
        expected
        (Pool.map ~jobs (fun x -> x * x) xs))
    [ 1; 2; 4; 8 ]

let test_pool_map_empty () =
  Alcotest.(check (list int)) "no tasks" [] (Pool.map ~jobs:4 Fun.id []);
  Alcotest.(check (list int)) "no tasks seq" [] (Pool.map ~jobs:1 Fun.id [])

let test_pool_earliest_exception_wins () =
  (* Tasks at indices 3 and 5 fail; whatever the schedule, the index-3
     exception is the one reported. *)
  List.iter
    (fun jobs ->
      Alcotest.check_raises
        (Printf.sprintf "jobs=%d first failure" jobs)
        (Failure "boom 3")
        (fun () ->
          ignore
            (Pool.map ~jobs
               (fun x ->
                 if x = 3 || x = 5 then failwith (Printf.sprintf "boom %d" x)
                 else x)
               (List.init 8 (fun i -> i)))))
    [ 1; 4 ]

let test_pool_parallel_actually_concurrent () =
  (* With 2 workers, two tasks that each wait for the other's side
     effect can only finish if they really run concurrently. *)
  let a = Atomic.make false in
  let b = Atomic.make false in
  let spin (mine, other) =
    Atomic.set mine true;
    while not (Atomic.get other) do
      Domain.cpu_relax ()
    done
  in
  ignore (Pool.map ~jobs:2 spin [ (a, b); (b, a) ]);
  Alcotest.(check bool) "both ran" true (Atomic.get a && Atomic.get b)

(* A map inside a task of a parallel map runs inline on the task's
   own worker domain: each nested item sees the domain its task ran
   on, the results equal [List.map]'s, and the earliest failure of the
   nested list is the one re-raised. *)
let test_pool_nested_inline () =
  let nested =
    Pool.map ~jobs:2
      (fun x ->
        let inner =
          Pool.map ~jobs:4
            (fun y -> (y * y, (Domain.self () :> int)))
            (List.init 6 (fun i -> i + x))
        in
        ((Domain.self () :> int), inner))
      [ 0; 1; 2; 3 ]
  in
  List.iteri
    (fun x (me, inner) ->
      Alcotest.(check (list int))
        (Printf.sprintf "task %d: equals List.map" x)
        (List.init 6 (fun i -> (i + x) * (i + x)))
        (List.map fst inner);
      List.iter
        (fun (_, d) ->
          Alcotest.(check int)
            (Printf.sprintf "task %d: nested item on the worker's domain" x)
            me d)
        inner)
    nested;
  Alcotest.check_raises "nested: earliest failure" (Failure "boom 1") (fun () ->
      ignore
        (Pool.map ~jobs:2
           (fun () ->
             Pool.map ~jobs:4
               (fun y ->
                 if y = 1 || y = 3 then failwith (Printf.sprintf "boom %d" y)
                 else y)
               (List.init 5 Fun.id))
           [ () ]))

(* A directory opens for reading but has no length; every reader
   names it as a directory, under the directory's own path, and the
   reason alone is what a caller that prints the path itself shows. *)
let test_io_read_directory () =
  let dir = Filename.get_temp_dir_name () in
  let expect = dir ^ ": is a directory" in
  Alcotest.check_raises "read_file" (Sys_error expect) (fun () ->
      ignore (Vp_util.Io.read_file dir : string));
  Alcotest.check_raises "with_in_file" (Sys_error expect) (fun () ->
      Vp_util.Io.with_in_file dir (fun _ -> Alcotest.fail "opened"));
  Alcotest.(check string) "reason" "is a directory"
    (Vp_util.Io.error_reason ~path:dir expect);
  Alcotest.(check string) "other path kept" expect
    (Vp_util.Io.error_reason ~path:"elsewhere" expect)

(* Bytes survive a write and a read; a missing file's error names it,
   and its reason alone does not. *)
let test_io_roundtrip () =
  let path = Filename.temp_file "vp-util-io" ".bin" in
  let bytes = "line\n\000\255tail" in
  Vp_util.Io.write_file path bytes;
  Alcotest.(check string) "bytes back" bytes (Vp_util.Io.read_file path);
  Sys.remove path;
  match Vp_util.Io.read_file path with
  | _ -> Alcotest.fail "read a removed file"
  | exception Sys_error e ->
    Alcotest.(check bool) (e ^ " names the path once") true
      (Vp_util.Io.error_reason ~path e <> e
      && not (contains (Vp_util.Io.error_reason ~path e) path))

(* Property tests. *)

let prop_pool_map_equals_list_map =
  QCheck.Test.make ~name:"Pool.map agrees with List.map for any jobs" ~count:50
    QCheck.(pair (int_range 1 8) (small_list small_int))
    (fun (jobs, xs) ->
      Pool.map ~jobs (fun x -> (2 * x) + 1) xs
      = List.map (fun x -> (2 * x) + 1) xs)

let prop_counter_never_exceeds_max =
  QCheck.Test.make ~name:"counter stays within width" ~count:200
    QCheck.(pair (int_bound 2000) (int_range 2 12))
    (fun (n, bits) ->
      let c = Counter.create ~bits in
      for i = 1 to n do
        Counter.record c ~taken:(i mod 3 = 0)
      done;
      Counter.executed c <= Counter.max_value c
      && Counter.taken c <= Counter.executed c)

let () =
  Alcotest.run "vp_util"
    [
      ( "rng",
        [
          Alcotest.test_case "determinism" `Quick test_rng_determinism;
          Alcotest.test_case "different seeds" `Quick test_rng_different_seeds;
          Alcotest.test_case "split" `Quick test_rng_split_independent;
          Alcotest.test_case "bounds" `Quick test_rng_bounds;
          Alcotest.test_case "bool probability" `Quick test_rng_bool_probability;
        ] );
      ( "counter",
        [
          Alcotest.test_case "basic" `Quick test_counter_basic;
          Alcotest.test_case "saturation" `Quick test_counter_saturation_preserves_fraction;
          Alcotest.test_case "saturating add" `Quick test_counter_saturating_add;
          Alcotest.test_case "add clamps" `Quick test_counter_add_clamps;
          Alcotest.test_case "incr saturates" `Quick test_counter_incr_noop_when_saturated;
          Alcotest.test_case "reset" `Quick test_counter_reset;
          QCheck_alcotest.to_alcotest prop_counter_never_exceeds_max;
          QCheck_alcotest.to_alcotest prop_counter_add_bounded;
        ] );
      ( "stats",
        [
          Alcotest.test_case "mean" `Quick test_stats_mean;
          Alcotest.test_case "ratio/pct" `Quick test_stats_ratio_pct;
        ] );
      ( "tabular",
        [
          Alcotest.test_case "render" `Quick test_tabular_render;
          Alcotest.test_case "too many cells" `Quick test_tabular_too_many_cells;
          Alcotest.test_case "cells" `Quick test_tabular_cells;
        ] );
      ( "io",
        [
          Alcotest.test_case "read a directory" `Quick test_io_read_directory;
          Alcotest.test_case "write read roundtrip" `Quick test_io_roundtrip;
        ] );
      ( "pool",
        [
          Alcotest.test_case "ordered gather" `Quick test_pool_map_ordered_gather;
          Alcotest.test_case "empty run" `Quick test_pool_map_empty;
          Alcotest.test_case "earliest exception" `Quick
            test_pool_earliest_exception_wins;
          Alcotest.test_case "nested map inline" `Quick test_pool_nested_inline;
          Alcotest.test_case "concurrent workers" `Quick
            test_pool_parallel_actually_concurrent;
          QCheck_alcotest.to_alcotest prop_pool_map_equals_list_map;
        ] );
    ]
