(* Tests for the schedule IR, the α-β event simulator, and the validity
   checker. *)

module T = Syccl_topology.Topology
module Builders = Syccl_topology.Builders
module Link = Syccl_topology.Link
module C = Syccl_collective.Collective
module Schedule = Syccl_sim.Schedule
module Sim = Syccl_sim.Sim
module Validate = Syccl_sim.Validate

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

let flat n gbps alpha =
  Builders.single_switch ~n ~link:(Link.make ~alpha ~gbps) ()

let gather_chunk ?(tag = 0) size initial wanted =
  { Schedule.size; mode = `Gather; initial; wanted; tag }

let xfer ?(prio = 0) ?(dim = 0) chunk src dst = { Schedule.chunk; src; dst; dim; prio }

let test_single_transfer_time () =
  (* One 1 MB transfer over a 100 GBps, 2 us link: alpha + beta*s exactly. *)
  let topo = flat 2 100.0 2e-6 in
  let s = { Schedule.chunks = [| gather_chunk 1e6 [ 0 ] [ 1 ] |]; xfers = [ xfer 0 0 1 ] } in
  check (Alcotest.float 1e-12) "alpha + beta*s" (2e-6 +. 1e-5) (Sim.time topo s)

let test_chain_pipelining () =
  (* Relay chain 0->1->2 with B blocks: total = 2*alpha + beta*s*(1 + 1/B). *)
  let topo = flat 3 100.0 2e-6 in
  let s =
    {
      Schedule.chunks = [| gather_chunk 1e6 [ 0 ] [ 1; 2 ] |];
      xfers = [ xfer 0 0 1; xfer ~prio:1 0 1 2 ];
    }
  in
  let b = 8 in
  let expect = (2.0 *. 2e-6) +. (1e-5 *. (1.0 +. (1.0 /. float_of_int b))) in
  check (Alcotest.float 1e-12) "pipelined chain" expect (Sim.time ~blocks:b topo s)

let test_port_serialization () =
  (* Two sends from one GPU serialize on its egress port. *)
  let topo = flat 3 100.0 0.0 in
  let s =
    {
      Schedule.chunks =
        [| gather_chunk 1e6 [ 0 ] [ 1 ]; gather_chunk ~tag:1 1e6 [ 0 ] [ 2 ] |];
      xfers = [ xfer 0 0 1; { (xfer 1 0 2) with prio = 1 } ];
    }
  in
  check (Alcotest.float 1e-12) "serialized egress" 2e-5 (Sim.time ~blocks:1 topo s)

let test_parallel_ports () =
  (* Sends from different GPUs to different GPUs proceed in parallel. *)
  let topo = flat 4 100.0 0.0 in
  let s =
    {
      Schedule.chunks =
        [| gather_chunk 1e6 [ 0 ] [ 1 ]; gather_chunk ~tag:1 1e6 [ 2 ] [ 3 ] |];
      xfers = [ xfer 0 0 1; xfer 1 2 3 ];
    }
  in
  check (Alcotest.float 1e-12) "parallel" 1e-5 (Sim.time ~blocks:1 topo s)

let test_reduce_waits_for_all () =
  (* Reduce chunk: relay 2 must wait for both 0 and 1 before sending to 3. *)
  let topo = flat 4 100.0 1e-6 in
  let s =
    {
      Schedule.chunks =
        [|
          {
            Schedule.size = 1e6;
            mode = `Reduce;
            initial = [ 0; 1; 2 ];
            wanted = [ 3 ];
            tag = 0;
          };
        |];
      xfers = [ xfer 0 0 2; xfer ~prio:1 0 1 2; xfer ~prio:2 0 2 3 ];
    }
  in
  (* Ingress of 2 serializes the two contributions (beta*s each); the last
     lands at 2*beta*s + alpha; the forward then adds alpha + beta*s. *)
  let expect = (2.0 *. 1e-5) +. 1e-6 +. 1e-5 +. 1e-6 in
  check (Alcotest.float 1e-12) "reduce ordering" expect (Sim.time ~blocks:1 topo s)

let test_deadlock_detected () =
  let topo = flat 3 100.0 1e-6 in
  (* 1 relays a chunk it never receives. *)
  let s = { Schedule.chunks = [| gather_chunk 1e6 [ 0 ] [ 2 ] |]; xfers = [ xfer 0 1 2 ] } in
  Alcotest.check_raises "deadlock"
    (Failure "Sim.run: deadlock, transfer 0 (chunk 0, 1->2) incomplete")
    (fun () -> ignore (Sim.time topo s))

let test_event_count () =
  let topo = flat 4 100.0 1e-6 in
  let s =
    {
      Schedule.chunks = [| gather_chunk 1e6 [ 0 ] [ 1; 2; 3 ] |];
      xfers = [ xfer 0 0 1; xfer 0 0 2; xfer 0 0 3 ];
    }
  in
  let r = Sim.run ~blocks:4 topo s in
  check Alcotest.int "events = xfers * blocks" 12 r.Sim.events

let test_invalid_peers () =
  let topo = Builders.h800 ~servers:2 in
  (* GPUs 0 and 9 are in different servers and different rails: not dim-0
     peers. *)
  let s = { Schedule.chunks = [| gather_chunk 1e3 [ 0 ] [ 9 ] |]; xfers = [ xfer ~dim:0 0 0 9 ] } in
  Alcotest.check_raises "bad peers"
    (Invalid_argument "Sim.run: endpoints are not peers in the dimension")
    (fun () -> ignore (Sim.time topo s))

(* Makespan must not improve when any link gets slower. *)
let monotone_alpha_prop =
  QCheck.Test.make ~name:"makespan monotone in alpha" ~count:60
    QCheck.(pair (int_range 2 8) (float_range 0.0 1e-5))
    (fun (n, alpha) ->
      let mk a =
        let topo = flat n 100.0 a in
        let coll = C.make C.AllGather ~n ~size:1e6 in
        Sim.time topo (Syccl_baselines.Direct.allgather topo coll)
      in
      mk alpha <= mk (alpha +. 1e-6) +. 1e-15)

let monotone_size_prop =
  QCheck.Test.make ~name:"makespan monotone in data size" ~count:60
    QCheck.(pair (int_range 2 8) (float_range 1e3 1e8))
    (fun (n, size) ->
      let topo = flat n 100.0 1e-6 in
      let t s =
        let coll = C.make C.AllGather ~n ~size:s in
        Sim.time topo (Syccl_baselines.Direct.allgather topo coll)
      in
      t size <= t (size *. 2.0) +. 1e-15)

let test_reverse_involution () =
  let topo = Builders.a100 ~servers:2 in
  let coll = C.make C.AllGather ~n:16 ~size:1e7 in
  let s = Syccl_baselines.Crafted.best_allgather topo coll |> fun (_, s, _) -> s in
  let rr = Schedule.reverse (Schedule.reverse s) in
  check (Alcotest.float 1e-12) "reverse is a cost involution" (Sim.time topo s)
    (Sim.time topo rr)

let test_phases_time_early_exit () =
  (* Two phases of one 1 MB send in 4 blocks, 2.5 us apart: 20 us in all.
     With [stop], the bound offered is completed phases + running makespan,
     rising block by block; the first accepted one is returned. *)
  let topo = flat 2 100.0 0.0 in
  let s = { Schedule.chunks = [| gather_chunk 1e6 [ 0 ] [ 1 ] |]; xfers = [ xfer 0 0 1 ] } in
  let phases = [ s; s ] in
  let full = Sim.phases_time ~blocks:4 topo phases in
  check (Alcotest.float 1e-18) "full time" 2e-5 full;
  let offered = ref [] in
  let stop l =
    offered := l :: !offered;
    l >= 1.4e-5
  in
  let l = Sim.phases_time ~blocks:4 ~stop topo phases in
  check (Alcotest.float 1e-18) "first accepted bound" 1.5e-5 l;
  check
    Alcotest.(list (float 1e-18))
    "bounds offered, one per new makespan"
    [ 2.5e-6; 5e-6; 7.5e-6; 1e-5; 1.25e-5; 1.5e-5 ]
    (List.rev !offered);
  check Alcotest.bool "a rejecting predicate leaves the full time" true
    (Int64.equal
       (Int64.bits_of_float full)
       (Int64.bits_of_float (Sim.phases_time ~blocks:4 ~stop:(fun _ -> false) topo phases)))

let test_union_shifts_chunks () =
  let a = { Schedule.chunks = [| gather_chunk 1.0 [ 0 ] [ 1 ] |]; xfers = [ xfer 0 0 1 ] } in
  let b = { Schedule.chunks = [| gather_chunk ~tag:7 2.0 [ 1 ] [ 0 ] |]; xfers = [ xfer 0 1 0 ] } in
  let u = Schedule.union [ a; b ] in
  check Alcotest.int "chunks" 2 (Array.length u.Schedule.chunks);
  (match u.Schedule.xfers with
  | [ x1; x2 ] ->
      check Alcotest.int "first chunk" 0 x1.Schedule.chunk;
      check Alcotest.int "shifted chunk" 1 x2.Schedule.chunk
  | _ -> Alcotest.fail "two xfers");
  check Alcotest.int "tag preserved" 7 u.Schedule.chunks.(1).Schedule.tag

(* --- Validate --- *)

let test_validate_catches_missing_delivery () =
  let topo = flat 3 100.0 1e-6 in
  let s = { Schedule.chunks = [| gather_chunk 1e3 [ 0 ] [ 1; 2 ] |]; xfers = [ xfer 0 0 1 ] } in
  check Alcotest.bool "missing delivery flagged" true
    (Result.is_error (Validate.check topo s))

let test_validate_catches_duplicate () =
  let topo = flat 3 100.0 1e-6 in
  let s =
    {
      Schedule.chunks = [| gather_chunk 1e3 [ 0 ] [ 1; 2 ] |];
      xfers = [ xfer 0 0 1; xfer 0 0 2; xfer ~prio:1 0 1 2 ];
    }
  in
  check Alcotest.bool "duplicate delivery flagged" true
    (Result.is_error (Validate.check topo s))

let test_validate_reduce_tree () =
  let topo = flat 4 100.0 1e-6 in
  let good =
    {
      Schedule.chunks =
        [| { Schedule.size = 1e3; mode = `Reduce; initial = [ 0; 1; 2 ]; wanted = [ 3 ]; tag = 0 } |];
      xfers = [ xfer 0 0 1; xfer ~prio:1 0 1 2; xfer ~prio:2 0 2 3 ];
    }
  in
  check Alcotest.bool "valid reduce chain" true (Validate.check topo good = Ok ());
  (* Contribution of GPU 2 never reaches the destination. *)
  let bad = { good with xfers = [ xfer 0 0 3; xfer 0 1 3 ] } in
  check Alcotest.bool "lost contribution flagged" true
    (Result.is_error (Validate.check topo bad))

let test_covers_wrong_fraction () =
  let topo = flat 2 100.0 1e-6 in
  let coll = C.make ~root:0 ~peer:1 C.SendRecv ~n:2 ~size:100.0 in
  let s = { Schedule.chunks = [| gather_chunk 50.0 [ 0 ] [ 1 ] |]; xfers = [ xfer 0 0 1 ] } in
  check Alcotest.bool "fraction shortfall flagged" true
    (Result.is_error (Validate.covers topo coll s))

let suite =
  [
    ("single transfer time", `Quick, test_single_transfer_time);
    ("chain pipelining", `Quick, test_chain_pipelining);
    ("port serialization", `Quick, test_port_serialization);
    ("parallel ports", `Quick, test_parallel_ports);
    ("reduce waits for all", `Quick, test_reduce_waits_for_all);
    ("deadlock detected", `Quick, test_deadlock_detected);
    ("event count", `Quick, test_event_count);
    ("invalid peers", `Quick, test_invalid_peers);
    qtest monotone_alpha_prop;
    qtest monotone_size_prop;
    ("reverse involution", `Quick, test_reverse_involution);
    ("phases_time early exit", `Quick, test_phases_time_early_exit);
    ("union shifts chunks", `Quick, test_union_shifts_chunks);
    ("validate missing delivery", `Quick, test_validate_catches_missing_delivery);
    ("validate duplicate delivery", `Quick, test_validate_catches_duplicate);
    ("validate reduce tree", `Quick, test_validate_reduce_tree);
    ("covers wrong fraction", `Quick, test_covers_wrong_fraction);
  ]
