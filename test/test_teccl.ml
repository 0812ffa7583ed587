(* Tests for the TECCL baseline: greedy synthesis, epoch-duration selection,
   and the epoch MILP formulation. *)

module T = Syccl_topology.Topology
module Builders = Syccl_topology.Builders
module Link = Syccl_topology.Link
module C = Syccl_collective.Collective
module Schedule = Syccl_sim.Schedule
module Sim = Syccl_sim.Sim
module Validate = Syccl_sim.Validate
module Greedy = Syccl_teccl.Greedy
module Tau = Syccl_teccl.Tau
module Epoch_model = Syccl_teccl.Epoch_model
module Teccl = Syccl_teccl.Teccl

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

let flat n = Builders.single_switch ~n ~link:(Link.make ~alpha:1e-6 ~gbps:100.0) ()

let metas_of coll =
  Array.of_list
    (List.map
       (fun ch ->
         match ch with
         | C.Gather_chunk { id; size; src; dsts } ->
             { Schedule.size; mode = `Gather; initial = [ src ]; wanted = dsts; tag = id }
         | C.Reduce_chunk _ -> assert false)
       (C.chunks coll))

let test_greedy_satisfies_demand () =
  let topo = Builders.a100 ~servers:2 in
  let coll = C.make C.AllGather ~n:16 ~size:1.6e6 in
  match Greedy.solve topo (metas_of coll) with
  | None -> Alcotest.fail "greedy should not time out"
  | Some s -> (
      match Validate.covers topo coll s with
      | Ok () -> ()
      | Error e -> Alcotest.fail e)

let test_greedy_single_chunk_broadcast_doubles () =
  (* With alpha >> beta*s the optimal broadcast doubles the holder set every
     round; the greedy must get within 2x of log2(n) rounds. *)
  let topo = flat 8 in
  let metas =
    [| { Schedule.size = 1.0; mode = `Gather; initial = [ 0 ];
         wanted = [ 1; 2; 3; 4; 5; 6; 7 ]; tag = 0 } |]
  in
  match Greedy.solve topo metas with
  | None -> Alcotest.fail "solved"
  | Some s ->
      let t = Sim.time ~blocks:1 topo s in
      Alcotest.(check bool) "doubling-like latency" true (t <= 6.0 *. 1.001e-6)

let test_greedy_restriction_respected () =
  let topo = Builders.h800 ~servers:2 in
  (* Restrict to server 0's NVLink group only. *)
  let metas =
    [| { Schedule.size = 1e6; mode = `Gather; initial = [ 0 ];
         wanted = [ 1; 2; 3 ]; tag = 0 } |]
  in
  match Greedy.solve ~restrict:(Greedy.Groups [ (0, 0) ]) topo metas with
  | None -> Alcotest.fail "solvable"
  | Some s ->
      Alcotest.(check bool) "only dim 0 used" true
        (List.for_all (fun (x : Schedule.xfer) -> x.dim = 0) s.Schedule.xfers)

let test_greedy_unreachable_times_out () =
  let topo = Builders.h800 ~servers:2 in
  (* GPU 9 is not reachable inside server 0's group. *)
  let metas =
    [| { Schedule.size = 1e6; mode = `Gather; initial = [ 0 ]; wanted = [ 9 ]; tag = 0 } |]
  in
  check Alcotest.bool "unreachable -> None" true
    (Greedy.solve ~restrict:(Greedy.Groups [ (0, 0) ]) topo metas = None)

let test_greedy_expired_budget () =
  (* A budget that is expired when the greedy starts stops it before its
     first committed transfer, although the demand is satisfiable. *)
  let topo = flat 4 in
  let metas = metas_of (C.make C.AllGather ~n:4 ~size:1e5) in
  check Alcotest.bool "satisfiable without a budget" true
    (Greedy.solve topo metas <> None);
  check Alcotest.bool "expired budget -> None" true
    (Greedy.solve ~budget:(Syccl_util.Budget.create ~seconds:0.0 ()) topo metas
    = None)

let test_tau_bandwidth_constraint () =
  (* τ must be r·βs with r or 1/r integral. *)
  let link = Link.make ~alpha:2e-6 ~gbps:50.0 in
  let size = 1e6 in
  let tau, r = Tau.select ~link ~size ~e:2.0 in
  let bs = Link.busy_time link size in
  check (Alcotest.float 1e-12) "tau = r * beta * s" (r *. bs) tau;
  let ir = 1.0 /. r in
  Alcotest.(check bool) "r or 1/r integral" true
    (Float.abs (r -. Float.round r) < 1e-9 || Float.abs (ir -. Float.round ir) < 1e-9)

let test_tau_latency_target () =
  (* E < 1 subdivides a transfer into ~1/E epochs. *)
  let link = Link.make ~alpha:2e-6 ~gbps:50.0 in
  let size = 1e6 in
  List.iter
    (fun (e, expect) ->
      let tau, _ = Tau.select ~link ~size ~e in
      let lat, _ = Tau.epochs_for ~link ~size ~tau in
      check Alcotest.int (Printf.sprintf "E=%.1f" e) expect lat)
    [ (1.0, 1); (0.5, 2); (0.2, 5); (0.1, 10) ]

let test_tau_larger_e_larger_tau () =
  (* Larger E = coarser model = larger epochs (§5.3). *)
  let link = Link.make ~alpha:5e-6 ~gbps:50.0 in
  let size = 1e6 in
  let coarse, _ = Tau.select ~link ~size ~e:3.0 in
  let mid, _ = Tau.select ~link ~size ~e:1.0 in
  let fine, _ = Tau.select ~link ~size ~e:0.2 in
  Alcotest.(check bool) "tau monotone in E" true (fine < mid && mid < coarse)

let test_epoch_model_small_broadcast () =
  (* 4-GPU broadcast in a flat group: the MILP should find the 2-epoch
     doubling schedule when alpha dominates. *)
  let topo = flat 4 in
  let metas =
    [| { Schedule.size = 100.0; mode = `Gather; initial = [ 0 ];
         wanted = [ 1; 2; 3 ]; tag = 0 } |]
  in
  let link = Link.make ~alpha:1e-6 ~gbps:100.0 in
  let tau, _ = Tau.select ~link ~size:100.0 ~e:1.0 in
  let spec =
    { Epoch_model.topo; chunks = metas; edges = Epoch_model.all_edges topo;
      tau; horizon = 3 }
  in
  match
    Epoch_model.solve ~node_limit:400
      ~budget:(Syccl_util.Budget.create ~seconds:30.0 ())
      spec
  with
  | None -> Alcotest.fail "feasible"
  | Some (s, epochs) ->
      Alcotest.(check bool) "optimal doubling" true (epochs <= 2);
      (match Validate.check topo s with
      | Ok () -> ()
      | Error e -> Alcotest.fail e)

let test_epoch_model_replay_respects_horizon () =
  let topo = flat 4 in
  let metas =
    [| { Schedule.size = 100.0; mode = `Gather; initial = [ 0 ];
         wanted = [ 1; 2; 3 ]; tag = 0 } |]
  in
  let s =
    { Schedule.chunks = metas;
      xfers =
        [ { Schedule.chunk = 0; src = 0; dst = 1; dim = 0; prio = 0 };
          { Schedule.chunk = 0; src = 0; dst = 2; dim = 0; prio = 1 };
          { Schedule.chunk = 0; src = 0; dst = 3; dim = 0; prio = 2 } ] }
  in
  let link = Link.make ~alpha:1e-6 ~gbps:100.0 in
  let tau, _ = Tau.select ~link ~size:100.0 ~e:1.0 in
  let spec =
    { Epoch_model.topo; chunks = metas; edges = Epoch_model.all_edges topo;
      tau; horizon = 10 }
  in
  (match Epoch_model.replay spec s with
  | Some g -> check Alcotest.int "serial sends take 3 epochs" 3 (Epoch_model.epochs g)
  | None -> Alcotest.fail "replay fits");
  check Alcotest.bool "too-short horizon rejected" true
    (Epoch_model.replay { spec with horizon = 2 } s = None)

let test_teccl_synthesize_allgather () =
  let topo = Builders.a100 ~servers:2 in
  let coll = C.make C.AllGather ~n:16 ~size:1.6e6 in
  let o = Teccl.synthesize ~restarts:1 ~milp_var_budget:0 topo coll in
  match o.Teccl.schedules with
  | None -> Alcotest.fail "no timeout expected"
  | Some ss ->
      Alcotest.(check bool) "valid" true
        (List.for_all (fun s -> Validate.covers topo coll s = Ok ()) ss);
      Alcotest.(check bool) "synth time recorded" true (o.Teccl.synth_time > 0.0)

let test_teccl_reducescatter_mirrored () =
  let topo = Builders.a100 ~servers:2 in
  let coll = C.make C.ReduceScatter ~n:16 ~size:1.6e6 in
  let o = Teccl.synthesize ~restarts:1 ~milp_var_budget:0 topo coll in
  match o.Teccl.schedules with
  | None -> Alcotest.fail "no timeout expected"
  | Some ss ->
      Alcotest.(check bool) "valid reduce schedule" true
        (List.for_all (fun s -> Validate.covers topo coll s = Ok ()) ss)

let test_teccl_timeout () =
  let topo = Builders.h800 ~servers:8 in
  let coll = C.make C.AllToAll ~n:64 ~size:1e9 in
  (* A tiny budget must produce a clean timeout, like Fig. 15b. *)
  let o =
    Teccl.synthesize ~restarts:1
      ~budget:(Syccl_util.Budget.create ~seconds:0.01 ())
      topo coll
  in
  check Alcotest.bool "timed out" true (o.Teccl.schedules = None)

let teccl_beats_or_matches_naive_prop =
  QCheck.Test.make ~name:"greedy beats single-hop-per-chunk serial schedule"
    ~count:10
    QCheck.(int_range 4 10)
    (fun n ->
      let topo = flat n in
      let coll = C.make C.AllGather ~n ~size:(float_of_int n *. 1e5) in
      match Greedy.solve topo (metas_of coll) with
      | None -> false
      | Some s ->
          (* Serial lower-bound comparison: greedy must beat one GPU sending
             everything sequentially. *)
          let serial = float_of_int ((n - 1) * n) *. Link.transfer_time
                         (Link.make ~alpha:1e-6 ~gbps:100.0) 1e5
          in
          Sim.time topo s < serial)

let test_epoch_model_port_capacity () =
  (* Two chunks leaving GPU 0 for distinct destinations must serialize on
     its egress port: makespan 2 epochs, not 1. *)
  let topo = flat 3 in
  let metas =
    [|
      { Schedule.size = 1e5; mode = `Gather; initial = [ 0 ]; wanted = [ 1 ]; tag = 0 };
      { Schedule.size = 1e5; mode = `Gather; initial = [ 0 ]; wanted = [ 2 ]; tag = 1 };
    |]
  in
  let link = Link.make ~alpha:1e-6 ~gbps:100.0 in
  let tau, _ = Tau.select ~link ~size:1e5 ~e:1.0 in
  let spec =
    { Epoch_model.topo; chunks = metas; edges = Epoch_model.all_edges topo;
      tau; horizon = 3 }
  in
  match
    Epoch_model.solve ~node_limit:400
      ~budget:(Syccl_util.Budget.create ~seconds:30.0 ())
      spec
  with
  | None -> Alcotest.fail "feasible"
  | Some (s, epochs) ->
      Alcotest.(check bool) "serialized on egress" true (epochs >= 2);
      (match Validate.check topo s with Ok () -> () | Error e -> Alcotest.fail e);
      check Alcotest.int "two transfers" 2 (Schedule.num_xfers s)

let test_epoch_model_var_count () =
  let topo = flat 3 in
  let metas =
    [| { Schedule.size = 1e5; mode = `Gather; initial = [ 0 ]; wanted = [ 1; 2 ]; tag = 0 } |]
  in
  let spec =
    { Epoch_model.topo; chunks = metas; edges = Epoch_model.all_edges topo;
      tau = 1e-5; horizon = 4 }
  in
  Alcotest.(check bool) "variables counted" true (Epoch_model.var_count spec > 10)

let suite =
  [
    ("epoch model port capacity", `Slow, test_epoch_model_port_capacity);
    ("epoch model var count", `Quick, test_epoch_model_var_count);
    ("greedy satisfies demand", `Quick, test_greedy_satisfies_demand);
    ("greedy doubles broadcast", `Quick, test_greedy_single_chunk_broadcast_doubles);
    ("greedy restriction", `Quick, test_greedy_restriction_respected);
    ("greedy unreachable", `Quick, test_greedy_unreachable_times_out);
    ("greedy expired budget", `Quick, test_greedy_expired_budget);
    ("tau bandwidth constraint", `Quick, test_tau_bandwidth_constraint);
    ("tau latency target", `Quick, test_tau_latency_target);
    ("tau monotone in E", `Quick, test_tau_larger_e_larger_tau);
    ("epoch model small broadcast", `Slow, test_epoch_model_small_broadcast);
    ("epoch model replay", `Quick, test_epoch_model_replay_respects_horizon);
    ("teccl allgather", `Quick, test_teccl_synthesize_allgather);
    ("teccl reducescatter mirrored", `Quick, test_teccl_reducescatter_mirrored);
    ("teccl timeout", `Quick, test_teccl_timeout);
    qtest teccl_beats_or_matches_naive_prop;
  ]
