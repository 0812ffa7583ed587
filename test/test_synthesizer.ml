(* End-to-end tests of the synthesis driver. *)

module T = Syccl_topology.Topology
module Builders = Syccl_topology.Builders
module C = Syccl_collective.Collective
module Validate = Syccl_sim.Validate
module Synth = Syccl.Synthesizer

let check = Alcotest.check

let fast = { Synth.default_config with fast_only = true }

let synth_valid topo coll =
  let o = Synth.synthesize ~config:fast topo coll in
  List.iter2
    (fun s phase ->
      match Validate.covers topo phase s with
      | Ok () -> ()
      | Error e -> Alcotest.failf "%s: %s" (C.kind_name phase.C.kind) e)
    o.Synth.schedules (C.phases coll);
  o

let test_allgather_valid_and_fast () =
  let topo = Builders.a100 ~servers:2 in
  let o = synth_valid topo (C.make C.AllGather ~n:16 ~size:1.6e6) in
  Alcotest.(check bool) "positive busbw" true (o.Synth.busbw > 0.0);
  Alcotest.(check bool) "synthesis under 30s" true (o.Synth.synth_time < 30.0)

let test_beats_nccl_ring_large () =
  let topo = Builders.a100 ~servers:2 in
  let coll = C.make C.AllGather ~n:16 ~size:1e9 in
  let o = synth_valid topo coll in
  let nccl = Syccl_baselines.Nccl.busbw topo coll in
  Alcotest.(check bool)
    (Printf.sprintf "SyCCL %.1f vs NCCL %.1f" o.Synth.busbw nccl)
    true (o.Synth.busbw > nccl)

let test_beats_nccl_ring_small () =
  let topo = Builders.a100 ~servers:2 in
  let coll = C.make C.AllGather ~n:16 ~size:4096.0 in
  let o = synth_valid topo coll in
  let nccl = Syccl_baselines.Nccl.busbw topo coll in
  Alcotest.(check bool) "latency win at 4KB" true (o.Synth.busbw > nccl)

let test_reducescatter_valid () =
  let topo = Builders.a100 ~servers:2 in
  ignore (synth_valid topo (C.make C.ReduceScatter ~n:16 ~size:1.6e7))

let test_alltoall_valid () =
  let topo = Builders.h800 ~servers:2 in
  ignore (synth_valid topo (C.make C.AllToAll ~n:16 ~size:1.6e6))

let test_allreduce_two_phases () =
  let topo = Builders.a100 ~servers:2 in
  let o = synth_valid topo (C.make C.AllReduce ~n:16 ~size:1.6e7) in
  check Alcotest.int "phases" 2 (List.length o.Synth.schedules)

let test_broadcast_rooted () =
  let topo = Builders.h800 ~servers:2 in
  ignore (synth_valid topo (C.make ~root:11 C.Broadcast ~n:16 ~size:1e6))

let test_breakdown_accounted () =
  let topo = Builders.a100 ~servers:2 in
  let o = Synth.synthesize ~config:fast topo (C.make C.AllGather ~n:16 ~size:1e6) in
  let b = o.Synth.breakdown in
  let parts = b.Synth.search_s +. b.Synth.combine_s +. b.Synth.solve1_s +. b.Synth.solve2_s in
  Alcotest.(check bool) "parts below total" true (parts <= o.Synth.synth_time +. 1e-3);
  Alcotest.(check bool) "solve dominates or equals search" true (b.Synth.search_s >= 0.0)

let test_gpu_count_mismatch () =
  let topo = Builders.a100 ~servers:2 in
  Alcotest.check_raises "mismatch"
    (Invalid_argument "Synthesizer: collective/topology GPU count mismatch")
    (fun () -> ignore (Synth.synthesize ~config:fast topo (C.make C.AllGather ~n:8 ~size:1e6)))

let env_domains =
  match Sys.getenv_opt "SYCCL_TEST_DOMAINS" with
  | Some s -> ( try max 1 (int_of_string (String.trim s)) with _ -> 4)
  | None -> 4

let test_parallel_domains_same_result () =
  let topo = Builders.h800 ~servers:2 in
  let coll = C.make C.AllGather ~n:16 ~size:1e6 in
  (* Reset between runs so every domain count also runs its own search and
     combination, not just the sub-solves. *)
  Synth.reset_caches ();
  let o1 = Synth.synthesize ~config:fast topo coll in
  Synth.reset_caches ();
  let o4 = Synth.synthesize ~config:{ fast with domains = 4 } topo coll in
  check (Alcotest.float 1e-9) "deterministic across domain counts"
    o1.Synth.time o4.Synth.time;
  check Alcotest.string "same winner" o1.Synth.chosen o4.Synth.chosen;
  Synth.reset_caches ();
  let oe = Synth.synthesize ~config:{ fast with domains = env_domains } topo coll in
  check (Alcotest.float 1e-9) "deterministic at SYCCL_TEST_DOMAINS"
    o1.Synth.time oe.Synth.time

(* The same across widths with MILP on: class maps run nested node waves.
   Gather on multirail:2x2 at 64 KiB solves 25 MILP models (275 B&B
   nodes), none of them near the coarse step's time limit. *)
let test_parallel_domains_same_milp () =
  let topo = Builders.h800_scaled ~servers:2 ~gpus_per_server:2 in
  let coll = C.make C.Gather ~n:4 ~size:65536.0 in
  let run domains =
    Synth.reset_caches ();
    Synth.synthesize ~config:{ Synth.default_config with domains } topo coll
  in
  let o1 = run 1 in
  let nodes (o : Synth.outcome) = o.Synth.breakdown.Synth.milp_nodes in
  Alcotest.(check bool) "MILP ran" true (nodes o1 > 0);
  List.iter
    (fun d ->
      let o = run d in
      let what = Printf.sprintf " at domains=%d" d in
      Alcotest.(check bool) ("same schedules" ^ what) true
        (o.Synth.schedules = o1.Synth.schedules);
      check (Alcotest.float 0.0) ("same time" ^ what) o1.Synth.time o.Synth.time;
      check Alcotest.int ("same B&B nodes" ^ what) (nodes o1) (nodes o))
    [ 4; env_domains ]

(* The sub-solve memo lives for one call: AllReduce's AllGather phase
   reuses its ReduceScatter phase's classes, and the breakdown reports
   exactly the hits the process-wide counter saw during the call. *)
let check_allreduce_memo topo cfg =
  let coll = C.make C.AllReduce ~n:(T.num_gpus topo) ~size:1e6 in
  let h0 = Syccl_util.Counters.value "cache.subsolve.hits" in
  let o = Synth.synthesize ~config:cfg topo coll in
  let dh = Syccl_util.Counters.value "cache.subsolve.hits" -. h0 in
  let hits = o.Synth.breakdown.Synth.cache_hits in
  Alcotest.(check bool) "allreduce reuses its own sub-solves" true (hits > 0);
  check Alcotest.int "breakdown equals the call's counter delta"
    (int_of_float dh) hits

let test_repeat_synthesize_hits_cache () =
  let topo = Builders.h800 ~servers:2 in
  let coll = C.make C.AllGather ~n:16 ~size:1e6 in
  let cfg = { fast with domains = env_domains } in
  Synth.reset_caches ();
  let o1 = Synth.synthesize ~config:cfg topo coll in
  let o2 = Synth.synthesize ~config:cfg topo coll in
  check (Alcotest.float 1e-12) "identical simulated time" o1.Synth.time
    o2.Synth.time;
  check Alcotest.string "identical winner" o1.Synth.chosen o2.Synth.chosen;
  check_allreduce_memo topo cfg

let test_sweep_reuses_subsolves () =
  let topo = Builders.h800 ~servers:2 in
  let coll = C.make C.AllGather ~n:16 ~size:1e6 in
  let cfg = { fast with domains = env_domains } in
  Synth.reset_caches ();
  (* A standalone call, then the same problem swept concurrently: every
     repeat must give the same outcome. *)
  let base = Synth.synthesize ~config:cfg topo coll in
  let outs = Synth.synthesize_all ~config:cfg topo [ coll; coll; coll ] in
  check Alcotest.int "three outcomes" 3 (List.length outs);
  List.iter
    (fun o ->
      check (Alcotest.float 1e-12) "sweep deterministic" base.Synth.time
        o.Synth.time)
    outs;
  check_allreduce_memo topo cfg

let test_sweep_distinct_sizes_deterministic () =
  (* A sweep over distinct sizes must give every element exactly the
     outcome of a standalone synthesize — regardless of pool size or of
     how far sibling elements have progressed. *)
  let topo = Builders.h800 ~servers:2 in
  let colls =
    List.map (fun size -> C.make C.AllGather ~n:16 ~size) [ 2.5e5; 1e6; 4e6 ]
  in
  let cfg = { fast with domains = env_domains } in
  Synth.reset_caches ();
  let outs = Synth.synthesize_all ~config:cfg topo colls in
  let solo =
    List.map
      (fun coll ->
        Synth.reset_caches ();
        Synth.synthesize ~config:fast topo coll)
      colls
  in
  List.iter2
    (fun (o : Synth.outcome) (s : Synth.outcome) ->
      check (Alcotest.float 1e-12) "sweep element equals cold standalone solve"
        s.Synth.time o.Synth.time;
      check Alcotest.string "same winner" s.Synth.chosen o.Synth.chosen)
    outs solo;
  Synth.reset_caches ()

let same_outcome what (a : Synth.outcome) (b : Synth.outcome) =
  check Alcotest.int64 (what ^ ": bit-equal time")
    (Int64.bits_of_float a.Synth.time)
    (Int64.bits_of_float b.Synth.time);
  check Alcotest.string (what ^ ": same winner") a.Synth.chosen b.Synth.chosen;
  check Alcotest.string (what ^ ": same rung")
    (Synth.level_name a.Synth.degraded)
    (Synth.level_name b.Synth.degraded);
  Alcotest.(check bool) (what ^ ": same schedules") true
    (a.Synth.schedules = b.Synth.schedules)

(* Synthesis is a function of the request: an earlier request of the same
   kind one size step below (same power-of-two bucket) must not change
   what a later one gets. *)
let test_history_independent () =
  let topo = Builders.a100 ~servers:2 in
  List.iter
    (fun kind ->
      let at size = C.make kind ~n:16 ~size in
      Synth.reset_caches ();
      ignore (Synth.synthesize ~config:fast topo (at 1.048576e6));
      let after = Synth.synthesize ~config:fast topo (at 1.572864e6) in
      Synth.reset_caches ();
      let fresh = Synth.synthesize ~config:fast topo (at 1.572864e6) in
      same_outcome (C.kind_name kind) fresh after)
    [ C.AllGather; C.ReduceScatter; C.AllReduce ]

(* Two topologies that share a name but not a shape: the second must not
   inherit the first's sketches or combinations. *)
let test_same_name_other_shape () =
  let nvlink = Syccl_topology.Link.make ~alpha:0.8e-6 ~gbps:180.0
  and rail = Syccl_topology.Link.make ~alpha:5.0e-6 ~gbps:50.0 in
  let rails servers gpus_per_server =
    Builders.multi_rail ~servers ~gpus_per_server ~nvlink ~rail ()
  in
  let coll = C.make C.AllGather ~n:8 ~size:1.048576e6 in
  Synth.reset_caches ();
  let fresh = Synth.synthesize ~config:fast (rails 4 2) coll in
  Synth.reset_caches ();
  ignore (Synth.synthesize ~config:fast (rails 2 4) coll);
  let after = Synth.synthesize ~config:fast (rails 4 2) coll in
  check Alcotest.string "full rung" "full" (Synth.level_name after.Synth.degraded);
  same_outcome "4x2 after 2x4" fresh after

(* On multirail:2x2 with GPU 1's rail/spine NIC down, the rail group of
   GPUs 1 and 3 is disconnected, and its widened sub-solution relays
   through GPU 0, which already holds the chunk.  Mirrored into a reduce,
   that re-delivery made GPU 0 send twice, and the screening simulation
   deadlocked: ReduceScatter and AllReduce fell to the rerouted rung. *)
let test_nic_fault_reduce_full_rung () =
  let topo =
    T.puncture
      (Builders.h800_scaled ~servers:2 ~gpus_per_server:2)
      (Syccl_topology.Fault.decode "nic:1@1")
  in
  List.iter
    (fun kind ->
      let coll = C.make kind ~n:4 ~size:1.048576e6 in
      let o = synth_valid topo coll in
      check Alcotest.string (C.kind_name kind ^ " rung") "full"
        (Synth.level_name o.Synth.degraded))
    [ C.ReduceScatter; C.AllReduce; C.AllGather ]

let test_sendrecv_direct_or_relay () =
  let topo = Builders.h800 ~servers:2 in
  (* Same rail: one hop expected. *)
  let sr = C.make ~root:2 ~peer:10 C.SendRecv ~n:16 ~size:1e6 in
  let o = synth_valid topo sr in
  Alcotest.(check bool) "one transfer" true
    (Syccl_sim.Schedule.num_xfers (List.hd o.Synth.schedules) <= 2);
  (* Cross-rail: the relay through NVLink onto the destination rail should
     beat the spine for large sizes only if spine is slower; here they tie,
     so we only require validity and a sane transfer count. *)
  let sr2 = C.make ~root:0 ~peer:9 C.SendRecv ~n:16 ~size:1e6 in
  let o2 = synth_valid topo sr2 in
  Alcotest.(check bool) "at most two hops" true
    (Syccl_sim.Schedule.num_xfers (List.hd o2.Synth.schedules) <= 2)

let suite =
  [
    ("sendrecv direct or relay", `Quick, test_sendrecv_direct_or_relay);
    ("allgather valid and fast", `Quick, test_allgather_valid_and_fast);
    ("beats nccl ring at 1GB", `Quick, test_beats_nccl_ring_large);
    ("beats nccl ring at 4KB", `Quick, test_beats_nccl_ring_small);
    ("reducescatter valid", `Quick, test_reducescatter_valid);
    ("alltoall valid", `Quick, test_alltoall_valid);
    ("allreduce two phases", `Quick, test_allreduce_two_phases);
    ("broadcast rooted", `Quick, test_broadcast_rooted);
    ("breakdown accounted", `Quick, test_breakdown_accounted);
    ("gpu count mismatch", `Quick, test_gpu_count_mismatch);
    ("parallel domains same result", `Quick, test_parallel_domains_same_result);
    ("parallel domains same MILP", `Quick, test_parallel_domains_same_milp);
    ("repeat synthesize hits cache", `Quick, test_repeat_synthesize_hits_cache);
    ("sweep reuses subsolves", `Quick, test_sweep_reuses_subsolves);
    ("sweep distinct sizes deterministic", `Quick, test_sweep_distinct_sizes_deterministic);
    ("history independent", `Quick, test_history_independent);
    ("same name other shape", `Quick, test_same_name_other_shape);
    ("nic fault reduce full rung", `Quick, test_nic_fault_reduce_full_rung);
  ]
