(* Additional schedule-IR edge cases: union/scale/map semantics and the
   simulator's waiter-promotion port policy. *)

module Builders = Syccl_topology.Builders
module Link = Syccl_topology.Link
module C = Syccl_collective.Collective
module Schedule = Syccl_sim.Schedule
module Sim = Syccl_sim.Sim

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

let flat n = Builders.single_switch ~n ~link:(Link.make ~alpha:1e-6 ~gbps:100.0) ()

let gather size initial wanted tag =
  { Schedule.size; mode = `Gather; initial; wanted; tag }

let xfer ?(prio = 0) chunk src dst = { Schedule.chunk; src; dst; dim = 0; prio }

let test_scale () =
  let s = { Schedule.chunks = [| gather 100.0 [ 0 ] [ 1 ] 0 |]; xfers = [ xfer 0 0 1 ] } in
  let s2 = Schedule.scale s 0.25 in
  check (Alcotest.float 1e-12) "scaled" 25.0 s2.Schedule.chunks.(0).Schedule.size;
  check (Alcotest.float 1e-12) "original untouched" 100.0
    s.Schedule.chunks.(0).Schedule.size

let test_map_gpus () =
  let s =
    { Schedule.chunks = [| gather 100.0 [ 0 ] [ 1; 2 ] 0 |];
      xfers = [ xfer 0 0 1; xfer ~prio:1 0 1 2 ] }
  in
  let m = Schedule.map_gpus s (fun v -> (v + 1) mod 3) in
  check Alcotest.(list int) "initial mapped" [ 1 ] m.Schedule.chunks.(0).Schedule.initial;
  (match m.Schedule.xfers with
  | [ a; b ] ->
      check Alcotest.int "first src" 1 a.Schedule.src;
      check Alcotest.int "second dst" 0 b.Schedule.dst
  | _ -> Alcotest.fail "two xfers")

(* The widened-relay shape: GPU 0 owns the chunk and hands it to GPU 1,
   then a relay path 0 -> 1 -> 3 (its first hop a re-delivery) and a relay
   leaf 0 -> 2 that forwards nothing.  Dropping both leaves a tree whose
   mirrors validate; a valid schedule comes back unchanged. *)
let test_drop_redundant () =
  let topo = flat 4 in
  let s =
    {
      Schedule.chunks = [| gather 8.0 [ 0 ] [ 1; 3 ] 0 |];
      xfers =
        [ xfer 0 0 1; xfer ~prio:10 0 0 1; xfer ~prio:11 0 1 3; xfer ~prio:12 0 0 2 ];
    }
  in
  let d = Schedule.drop_redundant s in
  check Alcotest.int "two transfers kept" 2 (Schedule.num_xfers d);
  check Alcotest.(list (pair int int)) "first delivery and the onward hop"
    [ (0, 1); (1, 3) ]
    (List.map (fun (x : Schedule.xfer) -> (x.src, x.dst)) d.Schedule.xfers);
  check Alcotest.bool "reverse validates" true
    (Syccl_sim.Validate.check topo (Schedule.reverse d) = Ok ());
  check Alcotest.bool "input reverse rejected" true
    (Result.is_error (Syccl_sim.Validate.check topo (Schedule.reverse s)));
  check Alcotest.bool "valid schedule unchanged" true (Schedule.drop_redundant d = d)

let test_empty_schedule () =
  let topo = flat 2 in
  check (Alcotest.float 1e-12) "empty runs instantly" 0.0 (Sim.time topo Schedule.empty)

(* Work conservation: a port never idles while a ready block wants it.  We
   check the aggregate consequence: K same-size sends from one GPU to K
   distinct receivers finish in exactly K * beta * s + alpha. *)
let work_conserving_prop =
  QCheck.Test.make ~name:"egress port is work-conserving" ~count:30
    QCheck.(pair (int_range 1 6) (int_range 1 16))
    (fun (k, blocks) ->
      let topo = flat (k + 1) in
      let link = Link.make ~alpha:1e-6 ~gbps:100.0 in
      let size = 1e5 in
      let s =
        {
          Schedule.chunks =
            Array.init k (fun i -> gather size [ 0 ] [ i + 1 ] i);
          xfers = List.init k (fun i -> xfer ~prio:i i 0 (i + 1));
        }
      in
      let expect =
        (float_of_int k *. Link.busy_time link size)
        +. link.Link.alpha
        +. (Link.busy_time link size /. float_of_int blocks)
        -. (Link.busy_time link size /. float_of_int blocks)
      in
      Float.abs (Sim.time ~blocks topo s -. expect) < 1e-9)

(* Cross-traffic independence: adding transfers on disjoint GPU pairs never
   slows the original transfer set. *)
let independence_prop =
  QCheck.Test.make ~name:"disjoint traffic does not interfere" ~count:30
    QCheck.(int_range 2 5)
    (fun pairs ->
      let topo = flat (2 * pairs) in
      let one =
        {
          Schedule.chunks = [| gather 1e6 [ 0 ] [ 1 ] 0 |];
          xfers = [ xfer 0 0 1 ];
        }
      in
      let many =
        {
          Schedule.chunks =
            Array.init pairs (fun i -> gather 1e6 [ 2 * i ] [ (2 * i) + 1 ] i);
          xfers = List.init pairs (fun i -> xfer ~prio:i i (2 * i) ((2 * i) + 1));
        }
      in
      Float.abs (Sim.time topo one -. Sim.time topo many) < 1e-12)

(* Splitting a chunk across two identical paths can only help or tie. *)
let split_helps_prop =
  QCheck.Test.make ~name:"chunk splitting never hurts on parallel relays" ~count:20
    QCheck.(int_range 16 24)
    (fun log2size ->
      let topo = flat 4 in
      let size = Float.of_int (1 lsl log2size) in
      let whole =
        {
          Schedule.chunks = [| gather size [ 0 ] [ 3 ] 0 |];
          xfers = [ xfer 0 0 1; xfer ~prio:1 0 1 3 ];
        }
      in
      let split =
        {
          Schedule.chunks =
            [| gather (size /. 2.0) [ 0 ] [ 3 ] 0; gather (size /. 2.0) [ 0 ] [ 3 ] 0 |];
          xfers =
            [
              xfer 0 0 1; xfer ~prio:1 0 1 3;
              { Schedule.chunk = 1; src = 0; dst = 2; dim = 0; prio = 2 };
              { Schedule.chunk = 1; src = 2; dst = 3; dim = 0; prio = 3 };
            ];
        }
      in
      Sim.time topo split <= Sim.time topo whole +. 1e-12)

let test_prio_orders_contention () =
  (* Two chunks contending for one egress: priority picks who goes first,
     and the loser's arrival reflects the serialization. *)
  let topo = flat 3 in
  let link = Link.make ~alpha:1e-6 ~gbps:100.0 in
  let size = 1e6 in
  let mk p0 p1 =
    {
      Schedule.chunks = [| gather size [ 0 ] [ 1 ] 0; gather size [ 0 ] [ 2 ] 1 |];
      xfers = [ xfer ~prio:p0 0 0 1; xfer ~prio:p1 1 0 2 ];
    }
  in
  let r = Sim.run ~blocks:1 topo (mk 0 1) in
  check (Alcotest.float 1e-12) "first arrives early"
    (Link.transfer_time link size)
    r.Sim.xfer_finish.(0);
  let r2 = Sim.run ~blocks:1 topo (mk 1 0) in
  check (Alcotest.float 1e-12) "priorities swap the order"
    (Link.transfer_time link size)
    r2.Sim.xfer_finish.(1)

let suite =
  [
    ("scale", `Quick, test_scale);
    ("map gpus", `Quick, test_map_gpus);
    ("empty schedule", `Quick, test_empty_schedule);
    ("drop redundant", `Quick, test_drop_redundant);
    qtest work_conserving_prop;
    qtest independence_prop;
    qtest split_helps_prop;
    ("prio orders contention", `Quick, test_prio_orders_contention);
  ]
