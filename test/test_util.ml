(* Unit and property tests for the utility substrate. *)

module Xrand = Syccl_util.Xrand
module Pqueue = Syccl_util.Pqueue
module Mixed_radix = Syccl_util.Mixed_radix
module Linalg = Syccl_util.Linalg
module Perm = Syccl_util.Perm
module Stats = Syccl_util.Stats
module Pool = Syccl_util.Pool

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

(* --- Xrand --- *)

let test_rand_deterministic () =
  let a = Xrand.create 7 and b = Xrand.create 7 in
  for _ = 1 to 100 do
    check Alcotest.int64 "same stream" (Xrand.next_int64 a) (Xrand.next_int64 b)
  done

let test_rand_bounds () =
  let r = Xrand.create 1 in
  for _ = 1 to 1000 do
    let x = Xrand.int r 17 in
    Alcotest.(check bool) "in range" true (x >= 0 && x < 17);
    let f = Xrand.float r 3.0 in
    Alcotest.(check bool) "float in range" true (f >= 0.0 && f < 3.0)
  done

let test_rand_shuffle_permutes () =
  let r = Xrand.create 3 in
  let a = Array.init 20 (fun i -> i) in
  Xrand.shuffle r a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  check Alcotest.(array int) "same elements" (Array.init 20 (fun i -> i)) sorted

(* --- Pqueue --- *)

let pqueue_sorted_prop =
  QCheck.Test.make ~name:"pqueue drains in sorted order" ~count:200
    QCheck.(list int)
    (fun xs ->
      let q = Pqueue.create ~cmp:compare in
      List.iter (Pqueue.push q) xs;
      Pqueue.to_sorted_list q = List.sort compare xs)

let test_pqueue_peek () =
  let q = Pqueue.create ~cmp:compare in
  Alcotest.(check (option int)) "empty peek" None (Pqueue.peek q);
  Pqueue.push q 5;
  Pqueue.push q 2;
  Alcotest.(check (option int)) "min" (Some 2) (Pqueue.peek q);
  check Alcotest.int "length" 2 (Pqueue.length q)

(* --- Mixed_radix --- *)

let mixed_radix_roundtrip_prop =
  QCheck.Test.make ~name:"mixed-radix encode/decode roundtrip" ~count:200
    QCheck.(list_of_size Gen.(1 -- 4) (int_range 1 6))
    (fun dims ->
      let shape = Array.of_list dims in
      let n = Mixed_radix.size shape in
      List.for_all
        (fun i -> Mixed_radix.encode ~shape (Mixed_radix.decode ~shape i) = i)
        (List.init n (fun i -> i)))

let test_mixed_radix_iter () =
  let shape = [| 2; 3 |] in
  let seen = ref [] in
  Mixed_radix.iter ~shape (fun c -> seen := Array.copy c :: !seen);
  check Alcotest.int "count" 6 (List.length !seen);
  check Alcotest.(list (array int)) "order"
    [ [| 0; 0 |]; [| 0; 1 |]; [| 0; 2 |]; [| 1; 0 |]; [| 1; 1 |]; [| 1; 2 |] ]
    (List.rev !seen)

(* --- Linalg --- *)

let test_linalg_solve () =
  match Linalg.solve [| [| 2.0; 1.0 |]; [| 1.0; 3.0 |] |] [| 5.0; 10.0 |] with
  | None -> Alcotest.fail "solvable system"
  | Some x ->
      check (Alcotest.float 1e-9) "x0" 1.0 x.(0);
      check (Alcotest.float 1e-9) "x1" 3.0 x.(1)

let test_linalg_singular () =
  check Alcotest.bool "singular detected" true
    (Linalg.solve [| [| 1.0; 2.0 |]; [| 2.0; 4.0 |] |] [| 1.0; 2.0 |] = None)

let linalg_solve_prop =
  QCheck.Test.make ~name:"linalg solution satisfies the system" ~count:100
    QCheck.(list_of_size (Gen.return 9) (float_range (-5.0) 5.0))
    (fun coefs ->
      let a = [| [| List.nth coefs 0 +. 10.0; List.nth coefs 1; List.nth coefs 2 |];
                 [| List.nth coefs 3; List.nth coefs 4 +. 10.0; List.nth coefs 5 |];
                 [| List.nth coefs 6; List.nth coefs 7; List.nth coefs 8 +. 10.0 |] |]
      in
      let b = [| 1.0; 2.0; 3.0 |] in
      match Linalg.solve a b with
      | None -> false (* diagonally dominant: always solvable *)
      | Some x -> Linalg.residual a x b < 1e-6)

(* --- Perm --- *)

let perm_compose_invert_prop =
  QCheck.Test.make ~name:"perm: compose with inverse is identity" ~count:200
    QCheck.(int_range 1 20)
    (fun n ->
      let r = Xrand.create n in
      let p = Array.init n (fun i -> i) in
      Xrand.shuffle r p;
      Perm.is_valid p
      && Perm.equal (Perm.compose p (Perm.invert p)) (Perm.identity n)
      && Perm.equal (Perm.compose (Perm.invert p) p) (Perm.identity n))

let test_perm_rotation () =
  let p = Perm.rotation 5 2 in
  check Alcotest.(array int) "rotation" [| 2; 3; 4; 0; 1 |] p;
  check Alcotest.(array int) "negative rotation" [| 3; 4; 0; 1; 2 |] (Perm.rotation 5 (-2))

let test_perm_cycle () =
  let p = Perm.of_cycle 4 [ 0; 2; 3 ] in
  check Alcotest.(array int) "cycle" [| 2; 1; 3; 0 |] p

(* --- Stats --- *)

let test_stats () =
  check (Alcotest.float 1e-9) "mean" 2.0 (Stats.mean [ 1.0; 2.0; 3.0 ]);
  let lo, hi = Stats.min_max [ 3.0; 1.0; 2.0 ] in
  check (Alcotest.float 1e-9) "min" 1.0 lo;
  check (Alcotest.float 1e-9) "max" 3.0 hi;
  check (Alcotest.float 1e-9) "median" 2.0 (Stats.percentile 0.5 [ 3.0; 1.0; 2.0 ]);
  check (Alcotest.float 1e-9) "stddev of constant" 0.0 (Stats.stddev [ 4.0; 4.0 ])

let test_stats_empty () =
  check Alcotest.(option (float 1e-9)) "mean_opt empty" None (Stats.mean_opt []);
  check
    Alcotest.(option (pair (float 1e-9) (float 1e-9)))
    "min_max_opt empty" None (Stats.min_max_opt []);
  check Alcotest.(option (float 1e-9)) "percentile_opt empty" None
    (Stats.percentile_opt 0.5 []);
  (* Historical wrappers: mean degrades to 0, the others raise. *)
  check (Alcotest.float 1e-9) "mean [] = 0" 0.0 (Stats.mean []);
  Alcotest.check_raises "min_max [] raises"
    (Invalid_argument "Stats.min_max: empty") (fun () ->
      ignore (Stats.min_max []));
  Alcotest.check_raises "percentile [] raises"
    (Invalid_argument "Stats.percentile: empty") (fun () ->
      ignore (Stats.percentile 0.5 []))

let test_stats_singleton_and_extremes () =
  check Alcotest.(option (float 1e-9)) "mean_opt singleton" (Some 7.0)
    (Stats.mean_opt [ 7.0 ]);
  check
    Alcotest.(option (pair (float 1e-9) (float 1e-9)))
    "min_max_opt singleton"
    (Some (7.0, 7.0))
    (Stats.min_max_opt [ 7.0 ]);
  List.iter
    (fun p ->
      check
        Alcotest.(option (float 1e-9))
        (Printf.sprintf "singleton p=%.1f" p) (Some 7.0)
        (Stats.percentile_opt p [ 7.0 ]))
    [ 0.0; 0.5; 1.0 ];
  let xs = [ 9.0; 1.0; 5.0; 3.0 ] in
  check Alcotest.(option (float 1e-9)) "p=0 is min" (Some 1.0)
    (Stats.percentile_opt 0.0 xs);
  check Alcotest.(option (float 1e-9)) "p=1 is max" (Some 9.0)
    (Stats.percentile_opt 1.0 xs)

let test_stats_percentile_range () =
  (* Out-of-range p raises even on the empty list: the range check is not
     gated behind a non-empty input. *)
  List.iter
    (fun xs ->
      Alcotest.check_raises "p out of range raises"
        (Invalid_argument "Stats.percentile: p outside [0, 1]") (fun () ->
          ignore (Stats.percentile_opt 1.5 xs));
      Alcotest.check_raises "negative p raises"
        (Invalid_argument "Stats.percentile: p outside [0, 1]") (fun () ->
          ignore (Stats.percentile_opt (-0.1) xs)))
    [ []; [ 1.0; 2.0 ] ]

(* --- Pool.map --- *)

let test_parallel_map_order () =
  let xs = Array.init 101 (fun i -> i) in
  let ys = Pool.map (Pool.get 4) (fun x -> x * x) xs in
  check Alcotest.(array int) "order preserved" (Array.map (fun x -> x * x) xs) ys

let test_parallel_map_exn () =
  match Pool.map (Pool.get 3) (fun x -> if x = 5 then failwith "boom" else x)
          (Array.init 10 (fun i -> i))
  with
  | exception Failure m -> check Alcotest.string "exn propagated" "boom" m
  | _ -> Alcotest.fail "expected exception"

let suite =
  [
    ("rand deterministic", `Quick, test_rand_deterministic);
    ("rand bounds", `Quick, test_rand_bounds);
    ("rand shuffle permutes", `Quick, test_rand_shuffle_permutes);
    qtest pqueue_sorted_prop;
    ("pqueue peek", `Quick, test_pqueue_peek);
    qtest mixed_radix_roundtrip_prop;
    ("mixed radix iter", `Quick, test_mixed_radix_iter);
    ("linalg solve", `Quick, test_linalg_solve);
    ("linalg singular", `Quick, test_linalg_singular);
    qtest linalg_solve_prop;
    qtest perm_compose_invert_prop;
    ("perm rotation", `Quick, test_perm_rotation);
    ("perm cycle", `Quick, test_perm_cycle);
    ("stats", `Quick, test_stats);
    ("stats empty", `Quick, test_stats_empty);
    ("stats singleton and extremes", `Quick, test_stats_singleton_and_extremes);
    ("stats percentile range", `Quick, test_stats_percentile_range);
    ("parallel map order", `Quick, test_parallel_map_order);
    ("parallel map exn", `Quick, test_parallel_map_exn);
  ]
