(* Tests for the persistent work-stealing domain pool, the bounded cache
   and the monotonic clock. *)

module Pool = Syccl_util.Pool
module Cache = Syccl_util.Cache
module Counters = Syccl_util.Counters
module Clock = Syccl_util.Clock

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

(* CI runs the suite twice with different pool widths; the heavier tests
   read the width from SYCCL_TEST_DOMAINS (default 2). *)
let env_domains =
  match Sys.getenv_opt "SYCCL_TEST_DOMAINS" with
  | Some s -> ( try max 1 (int_of_string (String.trim s)) with _ -> 2)
  | None -> 2

(* --- Pool.map_domains determinism ------------------------------------ *)

let test_map_deterministic () =
  let xs = Array.init 257 (fun i -> i) in
  let f x = (x * 31) lxor (x lsr 2) in
  let expect = Array.map f xs in
  List.iter
    (fun d ->
      let ys = Pool.map_domains ~domains:d f xs in
      check
        Alcotest.(array int)
        (Printf.sprintf "map at domains=%d" d)
        expect ys)
    [ 1; 2; 8; env_domains ]

let test_map_empty_and_singleton () =
  check Alcotest.(array int) "empty" [||] (Pool.map_domains ~domains:4 succ [||]);
  check Alcotest.(array int) "singleton" [| 8 |]
    (Pool.map_domains ~domains:4 succ [| 7 |])

(* The lowest failing index's exception must win, as in Array.map, at every
   pool size. *)
let test_map_exn_lowest_index () =
  let f x =
    if x = 3 then failwith "at3" else if x = 7 then invalid_arg "at7" else x
  in
  List.iter
    (fun d ->
      match Pool.map_domains ~domains:d f (Array.init 20 (fun i -> i)) with
      | exception Failure m ->
          check Alcotest.string
            (Printf.sprintf "lowest-index exn at domains=%d" d)
            "at3" m
      | exception e ->
          Alcotest.failf "domains=%d: wrong exception %s" d
            (Printexc.to_string e)
      | _ -> Alcotest.failf "domains=%d: expected exception" d)
    [ 1; 8 ]

(* Nested parallel regions must not deadlock the fixed-size pool: blocked
   awaiters help execute other tasks. *)
let test_map_nested_no_deadlock () =
  let outer = Array.init 6 (fun i -> i) in
  let ys =
    Pool.map_domains ~domains:4
      (fun i ->
        let inner = Pool.map_domains ~domains:4 (fun j -> (i * 100) + j)
            (Array.init 32 (fun j -> j))
        in
        Array.fold_left ( + ) 0 inner)
      outer
  in
  let expect =
    Array.map (fun i -> (i * 100 * 32) + (31 * 32 / 2)) outer
  in
  check Alcotest.(array int) "nested sums" expect ys

let map_matches_array_map_prop =
  QCheck.Test.make ~name:"pool map agrees with Array.map for any pool size"
    ~count:60
    QCheck.(pair (int_range 1 8) (list small_int))
    (fun (domains, xs) ->
      let a = Array.of_list xs in
      Pool.map_domains ~domains (fun x -> (2 * x) + 1) a
      = Array.map (fun x -> (2 * x) + 1) a)

(* --- submit / await ----------------------------------------------------- *)

let test_submit_await () =
  let pool = Pool.get env_domains in
  let futures =
    List.init 50 (fun i -> Pool.submit pool (fun () -> i * i))
  in
  List.iteri
    (fun i fut -> check Alcotest.int "future value" (i * i) (Pool.await fut))
    futures;
  (* Awaiting out of submission order also works. *)
  let a = Pool.submit pool (fun () -> "a")
  and b = Pool.submit pool (fun () -> "b") in
  check Alcotest.string "later first" "b" (Pool.await b);
  check Alcotest.string "earlier after" "a" (Pool.await a)

let test_await_reraises () =
  let pool = Pool.get env_domains in
  let fut = Pool.submit pool (fun () -> failwith "task-exn") in
  (match Pool.await fut with
  | exception Failure m -> check Alcotest.string "re-raised" "task-exn" m
  | _ -> Alcotest.fail "expected exception");
  (* A failed future keeps re-raising on every await. *)
  match Pool.await fut with
  | exception Failure m -> check Alcotest.string "sticky" "task-exn" m
  | _ -> Alcotest.fail "expected exception again"

let test_pool_get_persistent () =
  let p1 = Pool.get 3 and p2 = Pool.get 3 in
  Alcotest.(check bool) "same pool object" true (p1 == p2);
  check Alcotest.int "size" 3 (Pool.size p1);
  check Alcotest.int "sequential pool size" 1 (Pool.size (Pool.get 1))

(* --- bounded cache under concurrency ------------------------------------ *)

let test_cache_concurrent_bounded () =
  let capacity = 32 in
  let name = "cache.test-concurrent" in
  let cache : (int, int) Cache.t = Cache.create ~capacity ~name () in
  let h0 = Counters.value (name ^ ".hits")
  and m0 = Counters.value (name ^ ".misses") in
  let calls = 1000 in
  let ys =
    Pool.map_domains ~domains:8
      (fun i ->
        let k = i mod 64 in
        Cache.find_or_compute cache k (fun () -> k * 7))
      (Array.init calls (fun i -> i))
  in
  Array.iteri
    (fun i v -> check Alcotest.int "cached value" (i mod 64 * 7) v)
    ys;
  Alcotest.(check bool) "bounded" true (Cache.length cache <= capacity);
  let lookups =
    Counters.value (name ^ ".hits") -. h0
    +. (Counters.value (name ^ ".misses") -. m0)
  in
  check (Alcotest.float 0.0) "one hit or miss per lookup" (float_of_int calls)
    lookups

let test_cache_eviction_keeps_recent () =
  let cache : (int, int) Cache.t =
    Cache.create ~capacity:8 ~name:"cache.test-evict" ()
  in
  for k = 0 to 63 do
    Cache.put cache k k
  done;
  Alcotest.(check bool) "evicted down" true (Cache.length cache <= 8);
  (* The most recent insertion survives batch eviction. *)
  check Alcotest.(option int) "most recent kept" (Some 63)
    (Cache.find_opt cache 63);
  Cache.clear cache;
  check Alcotest.int "cleared" 0 (Cache.length cache)

let test_cache_weight_bound () =
  (* Values weigh their length: the capacity bounds the total weight, not
     the entry count — three 30-byte values fit in 100, a fourth does not,
     and eviction keeps the newest down to half the capacity. *)
  let cache : (int, string) Cache.t =
    Cache.create ~capacity:100 ~weight:String.length ~name:"cache.test-weight" ()
  in
  let x = String.make 30 'x' in
  for k = 0 to 2 do
    Cache.put cache k x
  done;
  check Alcotest.int "three fit" 3 (Cache.length cache);
  Cache.put cache 3 x;
  check Alcotest.int "a fourth evicts down to half the capacity" 1
    (Cache.length cache);
  check Alcotest.(option string) "the newest survives" (Some x)
    (Cache.find_opt cache 3);
  (* Replacing a value re-weighs it: a 1-byte value frees room. *)
  Cache.put cache 3 "y";
  for k = 4 to 6 do
    Cache.put cache k x
  done;
  check Alcotest.int "re-weighed replacement leaves room" 4 (Cache.length cache);
  (* A value heavier than the whole capacity is not kept, takes its key's
     old value with it, and evicts nothing else. *)
  Cache.put cache 3 (String.make 101 'z');
  check Alcotest.(option string) "oversized value dropped" None
    (Cache.find_opt cache 3);
  check Alcotest.int "others survive an oversized put" 3 (Cache.length cache)

(* --- monotonic clock ---------------------------------------------------- *)

let test_clock_monotonic () =
  let prev = ref (Clock.now ()) in
  for _ = 1 to 10_000 do
    let t = Clock.now () in
    Alcotest.(check bool) "non-decreasing" true (t >= !prev);
    prev := t
  done;
  Alcotest.(check bool) "elapsed non-negative" true
    (Clock.elapsed (Clock.now ()) >= 0.0)

let test_clock_monotonic_across_domains () =
  let samples =
    Pool.map_domains ~domains:4 (fun _ -> Clock.now ()) (Array.init 64 (fun i -> i))
  in
  let after = Clock.now () in
  Array.iter
    (fun t -> Alcotest.(check bool) "sample before after" true (t <= after))
    samples

let suite =
  [
    ("map deterministic across pool sizes", `Quick, test_map_deterministic);
    ("map empty and singleton", `Quick, test_map_empty_and_singleton);
    ("map exn lowest index wins", `Quick, test_map_exn_lowest_index);
    ("nested map no deadlock", `Quick, test_map_nested_no_deadlock);
    qtest map_matches_array_map_prop;
    ("submit await", `Quick, test_submit_await);
    ("await re-raises", `Quick, test_await_reraises);
    ("pool get persistent", `Quick, test_pool_get_persistent);
    ("cache concurrent bounded", `Quick, test_cache_concurrent_bounded);
    ("cache eviction keeps recent", `Quick, test_cache_eviction_keeps_recent);
    ("cache weight bound", `Quick, test_cache_weight_bound);
    ("clock monotonic", `Quick, test_clock_monotonic);
    ("clock monotonic across domains", `Quick, test_clock_monotonic_across_domains);
  ]
