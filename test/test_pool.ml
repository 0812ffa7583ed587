(* Tests for the map-only domain pool, the bounded cache and the
   monotonic clock. *)

module Pool = Syccl_util.Pool
module Cache = Syccl_util.Cache
module Counters = Syccl_util.Counters
module Clock = Syccl_util.Clock
module Faultpoint = Syccl_util.Faultpoint

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

(* CI runs the suite twice with different pool widths; the heavier tests
   read the width from SYCCL_TEST_DOMAINS (default 2). *)
let env_domains =
  match Sys.getenv_opt "SYCCL_TEST_DOMAINS" with
  | Some s -> ( try max 1 (int_of_string (String.trim s)) with _ -> 2)
  | None -> 2

let map d f xs = Pool.map (Pool.get d) f xs

(* --- determinism --------------------------------------------------------- *)

let test_map_deterministic () =
  let xs = Array.init 257 (fun i -> i) in
  let f x = (x * 31) lxor (x lsr 2) in
  let expect = Array.map f xs in
  List.iter
    (fun d ->
      check
        Alcotest.(array int)
        (Printf.sprintf "map at domains=%d" d)
        expect (map d f xs))
    [ 1; 2; 3; 4; 8; env_domains ]

let test_map_empty_and_singleton () =
  check Alcotest.(array int) "empty" [||] (map 4 succ [||]);
  check Alcotest.(array int) "singleton" [| 8 |] (map 4 succ [| 7 |])

(* The lowest failing index's exception must win, as in Array.map, at every
   pool size. *)
let test_map_exn_lowest_index () =
  let f x =
    if x = 3 then failwith "at3" else if x = 7 then invalid_arg "at7" else x
  in
  List.iter
    (fun d ->
      match map d f (Array.init 20 (fun i -> i)) with
      | exception Failure m ->
          check Alcotest.string
            (Printf.sprintf "lowest-index exn at domains=%d" d)
            "at3" m
      | exception e ->
          Alcotest.failf "domains=%d: wrong exception %s" d
            (Printexc.to_string e)
      | _ -> Alcotest.failf "domains=%d: expected exception" d)
    [ 1; 3; 8 ]

(* Nested maps must not deadlock: a caller whose elements are all claimed
   helps run other open jobs instead of blocking. *)
let test_map_nested_no_deadlock () =
  let outer = Array.init 6 (fun i -> i) in
  let ys =
    map 4
      (fun i ->
        let inner = map 4 (fun j -> (i * 100) + j) (Array.init 32 Fun.id) in
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
      map domains (fun x -> (2 * x) + 1) a = Array.map (fun x -> (2 * x) + 1) a)

(* --- map_result ---------------------------------------------------------- *)

let test_map_result_values () =
  Pool.map_result (Pool.get env_domains) (fun i -> i * i) (Array.init 50 Fun.id)
  |> Array.iteri (fun i r ->
         match r with
         | Ok v -> check Alcotest.int "element value" (i * i) v
         | Error e ->
             Alcotest.failf "element %d raised %s" i (Printexc.to_string e))

(* Each element keeps its own exception; the others keep their values. *)
let test_map_result_errors () =
  let f i = if i mod 3 = 0 then failwith (Printf.sprintf "at%d" i) else i in
  List.iter
    (fun d ->
      Pool.map_result (Pool.get d) f (Array.init 10 Fun.id)
      |> Array.iteri (fun i r ->
             match r with
             | Error (Failure m) ->
                 check Alcotest.string "own error" (Printf.sprintf "at%d" i) m
             | Error e ->
                 Alcotest.failf "wrong exception %s" (Printexc.to_string e)
             | Ok v ->
                 check Alcotest.bool "fails exactly where f raises" true
                   (i mod 3 <> 0);
                 check Alcotest.int "value" i v))
    [ 1; env_domains ]

(* A width bounds how many elements of one map run at once, whatever
   wider widths the process used before: the worker set is shared. *)
let test_width_bounds_concurrency () =
  ignore (map 8 Fun.id (Array.init 16 Fun.id));
  List.iter
    (fun d ->
      let running = Atomic.make 0 and peak = Atomic.make 0 in
      let f _ =
        let now = Atomic.fetch_and_add running 1 + 1 in
        let rec raise_peak () =
          let p = Atomic.get peak in
          if now > p && not (Atomic.compare_and_set peak p now) then
            raise_peak ()
        in
        raise_peak ();
        Unix.sleepf 0.002;
        Atomic.decr running
      in
      ignore (map d f (Array.init 24 Fun.id));
      check Alcotest.bool
        (Printf.sprintf "at most %d elements at once (saw %d)" d
           (Atomic.get peak))
        true
        (Atomic.get peak <= d))
    [ 1; 2; env_domains ]

(* The crash probe guards every element at every width: a width-1 map and
   a one-element map are not a bare Array.map. *)
let test_crash_probe_every_width () =
  Faultpoint.configure "pool.crash:1.0";
  Fun.protect ~finally:Faultpoint.clear (fun () ->
      List.iter
        (fun (d, n) ->
          let raised0 = Counters.value "pool.task_raised" in
          let rs = Pool.map_result (Pool.get d) succ (Array.init n Fun.id) in
          Array.iter
            (function
              | Error (Faultpoint.Injected "pool.crash") -> ()
              | Error e ->
                  Alcotest.failf "wrong exception %s" (Printexc.to_string e)
              | Ok _ -> Alcotest.failf "width %d, %d elements: element ran" d n)
            rs;
          (match Pool.map (Pool.get d) succ (Array.init n Fun.id) with
          | exception Faultpoint.Injected "pool.crash" -> ()
          | _ -> Alcotest.failf "width %d, %d elements: map returned" d n);
          check (Alcotest.float 0.0)
            (Printf.sprintf "width %d: every element counted twice" d)
            (float_of_int (2 * n))
            (Counters.value "pool.task_raised" -. raised0))
        [ (1, 5); (1, 1); (env_domains, 1); (env_domains, 6) ])

(* --- bounded cache under concurrency ------------------------------------ *)

let test_cache_concurrent_bounded () =
  let capacity = 32 in
  let name = "cache.test-concurrent" in
  let cache : (int, int) Cache.t = Cache.create ~capacity ~name () in
  let h0 = Counters.value (name ^ ".hits")
  and m0 = Counters.value (name ^ ".misses") in
  let calls = 1000 in
  let ys =
    map 8
      (fun i ->
        let k = i mod 64 in
        match Cache.find_opt cache k with
        | Some v -> v
        | None ->
            Cache.put cache k (k * 7);
            k * 7)
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
    map 4 (fun _ -> Clock.now ()) (Array.init 64 (fun i -> i))
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
    ("map_result values", `Quick, test_map_result_values);
    ("map_result errors", `Quick, test_map_result_errors);
    ("width bounds concurrency", `Quick, test_width_bounds_concurrency);
    ("crash probe at every width", `Quick, test_crash_probe_every_width);
    ("cache concurrent bounded", `Quick, test_cache_concurrent_bounded);
    ("cache eviction keeps recent", `Quick, test_cache_eviction_keeps_recent);
    ("cache weight bound", `Quick, test_cache_weight_bound);
    ("clock monotonic", `Quick, test_clock_monotonic);
    ("clock monotonic across domains", `Quick, test_clock_monotonic_across_domains);
  ]
