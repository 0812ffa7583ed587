(* Shrunk, checked-in reproducers for the bugs the fuzzing subsystem shook
   out.  Each test is the minimal witness the shrinker (or a hand pass over
   its output) left behind, pinned here so the fixes cannot regress without
   a named test failing — the fuzz smoke alone would only report a seed. *)

module Topology = Syccl_topology.Topology
module Builders = Syccl_topology.Builders
module Link = Syccl_topology.Link
module Collective = Syccl_collective.Collective
module Schedule = Syccl_sim.Schedule
module Sim = Syccl_sim.Sim
module Validate = Syccl_sim.Validate
module Registry = Syccl_serve.Registry
module Nccl = Syccl_baselines.Nccl
module Fallback = Syccl_baselines.Fallback

let link = Link.make ~alpha:1e-6 ~gbps:100.0
let switch n = Builders.single_switch ~name:"t" ~n ~link ()

let meta ?(size = 1024.0) ?(tag = 0) mode initial wanted =
  { Schedule.size; mode; initial; wanted; tag }

let xfer ?(dim = 0) ?(prio = 0) chunk src dst =
  { Schedule.chunk; src; dst; dim; prio }

let is_error what = function
  | Error (_ : string) -> ()
  | Ok () -> Alcotest.failf "%s: expected rejection, got Ok" what

let is_ok what = function
  | Ok () -> ()
  | Error e -> Alcotest.failf "%s: expected Ok, got %s" what e

(* --- Validate.check: reduce garbage cycle (fuzzer: mutant-soundness) --- *)

(* A two-node cycle disjoint from the real reduction used to slip through:
   every sender sent exactly once and the destination received, but GPUs 2
   and 3 feed only each other — they deadlock the event queue and their
   payloads never reach the destination. *)
let reduce_garbage_cycle () =
  let topo = switch 4 in
  let s =
    {
      Schedule.chunks = [| meta `Reduce [ 1 ] [ 0 ] |];
      xfers = [ xfer 0 1 0; xfer 0 2 3; xfer 0 3 2 ];
    }
  in
  is_error "garbage cycle" (Validate.check topo s);
  (* the honest sub-schedule stays accepted *)
  let ok = { s with Schedule.xfers = [ xfer 0 1 0 ] } in
  is_ok "cycle removed" (Validate.check topo ok)

(* The covers reduce arm needs contributor-set equality, not inclusion:
   a schedule missing contributor 3 computes a partial sum, one adding
   contributor 4 injects an extra operand — both answers are wrong even
   though every transfer completes and the structure check passes. *)
let reduce_contributor_set_equality () =
  let topo = switch 5 in
  let coll = Collective.make ~root:0 Collective.Reduce ~n:4 ~size:3072.0 in
  let missing =
    {
      Schedule.chunks = [| meta ~size:3072.0 `Reduce [ 1; 2 ] [ 0 ] |];
      xfers = [ xfer 0 1 0; xfer 0 2 0 ];
    }
  in
  is_ok "structure (missing)" (Validate.check topo missing);
  is_error "missing contributor" (Validate.covers topo coll missing);
  let extra =
    {
      Schedule.chunks = [| meta ~size:3072.0 `Reduce [ 1; 2; 3; 4 ] [ 0 ] |];
      xfers = [ xfer 0 1 0; xfer 0 2 0; xfer 0 3 0; xfer 0 4 0 ];
    }
  in
  is_ok "structure (extra)" (Validate.check topo extra);
  is_error "extra contributor" (Validate.covers topo coll extra)

(* --- Schedule.reverse: involution under negative/colliding prios --- *)

let reverse_involution_negative_prios () =
  let topo = switch 4 in
  let s =
    {
      Schedule.chunks = [| meta `Gather [ 0 ] [ 1; 2; 3 ] |];
      xfers =
        [ xfer ~prio:(-3) 0 0 1; xfer ~prio:0 0 0 2; xfer ~prio:(-3) 0 0 3 ];
    }
  in
  let rr = Schedule.reverse (Schedule.reverse s) in
  Alcotest.(check bool) "reverse is an involution" true (rr = s);
  let t = Sim.time topo s and trr = Sim.time topo rr in
  Alcotest.(check (float 1e-12)) "cost preserved" t trr

(* --- Schedule.union: id shifting and priority collisions (fuzzer:
   union-dominates) --- *)

let union_preserves_parts () =
  let topo = switch 4 in
  let a =
    {
      Schedule.chunks = [| meta ~tag:0 `Gather [ 0 ] [ 1 ] |];
      xfers = [ xfer ~prio:(-1) 0 0 1 ];
    }
  in
  let b =
    {
      Schedule.chunks = [| meta ~tag:1 `Gather [ 2 ] [ 3 ] |];
      xfers = [ xfer ~prio:(-1) 0 2 3 ];
    }
  in
  let u = Schedule.union [ a; b ] in
  is_ok "union valid" (Validate.check topo u);
  Alcotest.(check int) "chunk ids shifted"
    1
    (List.length (List.filter (fun x -> x.Schedule.chunk = 1) u.Schedule.xfers));
  Alcotest.(check (list int)) "tags preserved" [ 0; 1 ]
    (Array.to_list (Array.map (fun m -> m.Schedule.tag) u.Schedule.chunks));
  let tu = Sim.time topo u in
  let tmax = Float.max (Sim.time topo a) (Sim.time topo b) in
  Alcotest.(check bool) "union dominates parts" true
    (tu >= tmax *. (1.0 -. 1e-9))

(* --- Registry: size_bucket boundaries (fuzzer: size-bucket) --- *)

let size_bucket_boundaries () =
  let check name expected s =
    Alcotest.(check int) name expected (Registry.size_bucket s)
  in
  check "1.0 -> 0" 0 1.0;
  check "pred 2.0 -> 0" 0 (Float.pred 2.0);
  check "2.0 -> 1" 1 2.0;
  check "succ 2.0 -> 1" 1 (Float.succ 2.0);
  check "1024 -> 10" 10 1024.0;
  (* sub-1.0 sizes: negative buckets, no collision with bucket 0 *)
  check "0.5 -> -1" (-1) 0.5;
  check "pred 1.0 -> -1" (-1) (Float.pred 1.0);
  check "0.0625 -> -4" (-4) 0.0625;
  (* degenerate inputs share only the sentinel *)
  check "0.0 -> sentinel" min_int 0.0;
  check "-8.0 -> sentinel" min_int (-8.0);
  check "nan -> sentinel" min_int Float.nan

(* --- Registry: fidelity round-trip (fuzzer: registry-fidelity) --- *)

(* Stored at blocks=16, probed at blocks=8: the slower-than-stored demotion
   must compare at the entry's store-time fidelity, or the fidelity gap
   masquerades as a cost regression and every cross-fidelity probe misses. *)
let registry_fidelity_roundtrip () =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "syccl-test-reg-%d" (Unix.getpid ()))
  in
  let reg = Registry.open_dir dir in
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
        (try Sys.readdir dir with Sys_error _ -> [||]);
      (try Unix.rmdir dir with Unix.Unix_error _ -> ()))
    (fun () ->
      let topo = switch 4 in
      let coll = Collective.make Collective.AllGather ~n:4 ~size:65536.0 in
      let phases = Nccl.schedule topo coll in
      let cost =
        List.fold_left (fun a s -> a +. Sim.time ~blocks:16 topo s) 0.0 phases
      in
      Registry.store reg topo coll ~blocks:16 ~cost ~chosen:"test" phases;
      match Registry.lookup reg ~blocks:8 topo coll with
      | None -> Alcotest.fail "cross-fidelity probe missed"
      | Some hit ->
          Alcotest.(check int) "store-time fidelity reported" 16
            hit.Registry.stored_blocks;
          let expect =
            List.fold_left
              (fun a s -> a +. Sim.time ~blocks:8 topo s)
              0.0 hit.Registry.schedules
          in
          Alcotest.(check (float 1e-12)) "hit time at probe fidelity" expect
            hit.Registry.time)

(* --- Baselines: bugs the differential oracle surfaced --- *)

(* Gather built by reversing a Scatter carries `Reduce-mode chunks — a
   reduction where the demand asks for a concatenation. *)
let nccl_gather_validates () =
  let topo = switch 4 in
  let coll = Collective.make ~root:2 Collective.Gather ~n:4 ~size:4096.0 in
  is_ok "gather demand" (Validate.validate topo coll (Nccl.schedule topo coll))

(* TECCL's reduce-family phases are synthesized as the dual gather problem
   and mirrored with Schedule.reverse on the way out.  A precedence slip
   made the mirroring cover only the non-MILP arm, so on small instances
   (where the epoch MILP runs) reduce phases escaped as gather-mode
   schedules — same simulated cost, wrong computation.  The differential
   oracle caught it; this is the shrunk witness. *)
let teccl_reduce_mirrored () =
  let topo = switch 5 in
  let coll = Collective.make ~root:4 Collective.Reduce ~n:5 ~size:9224.76 in
  let outcome =
    Syccl_teccl.Teccl.synthesize ~seed:12345 ~restarts:1
      ~budget:(Syccl_util.Budget.create ~seconds:10.0 ())
      topo coll
  in
  match outcome.Syccl_teccl.Teccl.schedules with
  | None -> Alcotest.fail "teccl timed out on a 5-GPU reduce"
  | Some schedules ->
      is_ok "reduce phases mirrored" (Validate.validate topo coll schedules)

(* Dimension-disjoint peers (multi-rail diagonal, no spine) must relay
   instead of raising Not_found out of connecting_dim. *)
let rail_diagonal_relays () =
  let rail = Link.make ~alpha:1e-6 ~gbps:40.0 in
  let topo =
    Builders.multi_rail ~name:"t" ~servers:2 ~gpus_per_server:2 ~nvlink:link
      ~rail ()
  in
  let coll =
    Collective.make ~root:0 ~peer:3 Collective.SendRecv ~n:4 ~size:4096.0
  in
  is_ok "sendrecv diagonal" (Validate.validate topo coll (Nccl.schedule topo coll));
  let bcast = Collective.make ~root:1 Collective.Broadcast ~n:4 ~size:4096.0 in
  is_ok "broadcast relays"
    (Validate.validate topo bcast (Fallback.schedule topo bcast))

let () =
  Alcotest.run "check"
    [
      ( "validate",
        [
          Alcotest.test_case "reduce garbage cycle" `Quick reduce_garbage_cycle;
          Alcotest.test_case "reduce contributor set equality" `Quick
            reduce_contributor_set_equality;
        ] );
      ( "schedule",
        [
          Alcotest.test_case "reverse involution, negative prios" `Quick
            reverse_involution_negative_prios;
          Alcotest.test_case "union shifting and dominance" `Quick
            union_preserves_parts;
        ] );
      ( "registry",
        [
          Alcotest.test_case "size_bucket boundaries" `Quick
            size_bucket_boundaries;
          Alcotest.test_case "fidelity round-trip" `Quick
            registry_fidelity_roundtrip;
        ] );
      ( "baselines",
        [
          Alcotest.test_case "nccl gather validates" `Quick
            nccl_gather_validates;
          Alcotest.test_case "teccl reduce mirrored" `Quick
            teccl_reduce_mirrored;
          Alcotest.test_case "rail diagonal relays" `Quick rail_diagonal_relays;
        ] );
    ]
