(* Tests for merged sub-demand planning, isomorphism classes, and solving. *)

module T = Syccl_topology.Topology
module Builders = Syccl_topology.Builders
module C = Syccl_collective.Collective
module Schedule = Syccl_sim.Schedule
module Sim = Syccl_sim.Sim
module Validate = Syccl_sim.Validate
module Sketch = Syccl.Sketch
module Search = Syccl.Search
module Combine = Syccl.Combine
module Subsolver = Syccl.Subsolver

let check = Alcotest.check

(* A hand-built rail-first sketch on h800-2 (stage 0: rail hop, stage 1:
   in-server spread), replicated to every root: exercises merged sub-demands
   in every server and rail group. *)
let rail_first_combo topo kind =
  let n = T.num_gpus topo in
  let g = 8 in
  let stage_of = Array.make n (-1) and parent = Array.make n (-1) and dim_of = Array.make n (-1) in
  for v = 1 to n - 1 do
    if v mod g = 0 then begin
      stage_of.(v) <- 0;
      parent.(v) <- 0;
      dim_of.(v) <- 1
    end
    else begin
      stage_of.(v) <- 1;
      parent.(v) <- v / g * g;
      dim_of.(v) <- 0
    end
  done;
  let s = Sketch.make ~root:0 ~kind ~num_stages:2 ~stage_of ~parent ~dim_of in
  {
    Combine.sketches = List.map (fun r -> (r, 1.0)) (Combine.all_to_all_replicas topo s);
    desc = "test";
  }

let first_combo topo coll =
  let kind = if coll.C.kind = C.AllToAll then `Scatter else `Broadcast in
  match kind with
  | `Broadcast -> rail_first_combo topo `Broadcast
  | `Scatter -> (
      match Search.run topo ~kind ~root:0 with
      | [] -> Alcotest.fail "sketches found"
      | s :: _ ->
          {
            Combine.sketches =
              List.map (fun r -> (r, 1.0)) (Combine.all_to_all_replicas topo s);
            desc = "test";
          })

let test_plan_chunk_table () =
  let topo = Builders.h800 ~servers:2 in
  let coll = C.make C.AllGather ~n:16 ~size:1.6e6 in
  let plan = Subsolver.plan topo coll (first_combo topo coll) in
  (* One chunk per sketch; all-to-all over 16 roots with fraction 1. *)
  check Alcotest.int "chunks" 16 (Array.length plan.Subsolver.chunks);
  Array.iteri
    (fun i m ->
      check Alcotest.int (Printf.sprintf "tag %d" i) i m.Schedule.tag;
      check (Alcotest.float 1e-6) "size" 1e5 m.Schedule.size)
    plan.Subsolver.chunks

let test_plan_merges_demands () =
  let topo = Builders.h800 ~servers:2 in
  let coll = C.make C.AllGather ~n:16 ~size:1.6e6 in
  let plan = Subsolver.plan topo coll (first_combo topo coll) in
  (* Sub-demands of the same (stage, dim, group) are merged: each demand may
     carry several chunks. *)
  Alcotest.(check bool) "some demand carries several chunks" true
    (List.exists (fun d -> List.length d.Subsolver.entries > 1) plan.Subsolver.demands)

let test_class_key_groups_isomorphic () =
  let topo = Builders.h800 ~servers:2 in
  let coll = C.make C.AllGather ~n:16 ~size:1.6e6 in
  let plan = Subsolver.plan topo coll (first_combo topo coll) in
  let keys = List.map (Subsolver.class_key topo) plan.Subsolver.demands in
  let distinct = List.length (List.sort_uniq compare keys) in
  Alcotest.(check bool)
    (Printf.sprintf "isomorphism classes (%d) fewer than demands (%d)" distinct
       (List.length keys))
    true
    (distinct < List.length keys)

let test_transfer_maps_solution () =
  let topo = Builders.h800 ~servers:2 in
  let coll = C.make C.AllGather ~n:16 ~size:1.6e6 in
  let plan = Subsolver.plan topo coll (first_combo topo coll) in
  (* Find two distinct demands in the same class and transfer the solution. *)
  let by_key = Hashtbl.create 16 in
  List.iter
    (fun d ->
      let k = Subsolver.class_key topo d in
      Hashtbl.replace by_key k (d :: Option.value (Hashtbl.find_opt by_key k) ~default:[]))
    plan.Subsolver.demands;
  let pair =
    Hashtbl.fold
      (fun _ ds acc -> match (ds, acc) with (a :: b :: _), None -> Some (a, b) | _ -> acc)
      by_key None
  in
  match pair with
  | None -> Alcotest.fail "expected an isomorphism class with two members"
  | Some (rep, other) -> (
      let rep_xfers = Subsolver.solve_demand Subsolver.Fast_only topo rep in
      match Subsolver.transfer topo ~rep ~rep_xfers other with
      | None -> Alcotest.fail "transfer should verify"
      | Some xfers ->
          check Alcotest.int "same transfer count" (List.length rep_xfers)
            (List.length xfers))

let test_assemble_validates () =
  let topo = Builders.h800 ~servers:2 in
  let coll = C.make C.AllGather ~n:16 ~size:1.6e6 in
  let combo = first_combo topo coll in
  let plan = Subsolver.plan topo coll combo in
  let s =
    Subsolver.assemble plan
      ~solution:(fun _ -> Subsolver.solve_demand Subsolver.Fast_only topo)
  in
  match Validate.covers topo coll s with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let test_scatter_plan_routes_chunks () =
  let topo = Builders.h800 ~servers:2 in
  let coll = C.make C.AllToAll ~n:16 ~size:1.6e6 in
  let combo = first_combo topo coll in
  let plan = Subsolver.plan topo coll combo in
  (* AlltoAll: 16 roots x 15 destination chunks. *)
  check Alcotest.int "chunks" 240 (Array.length plan.Subsolver.chunks);
  let s =
    Subsolver.assemble plan
      ~solution:(fun _ -> Subsolver.solve_demand Subsolver.Fast_only topo)
  in
  match Validate.covers topo coll s with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let test_milp_refine_never_worse () =
  let topo = Builders.single_switch ~n:4
      ~link:(Syccl_topology.Link.make ~alpha:2e-6 ~gbps:100.0) ()
  in
  let demand =
    {
      Subsolver.d_stage = 0;
      d_dim = 0;
      d_group = 0;
      entries =
        [ { Subsolver.chunk = 0; e_size = 1e4; e_srcs = [ 0 ]; e_dsts = [ 1; 2; 3 ] } ];
    }
  in
  let metas d = Array.of_list (List.map (fun (e : Subsolver.entry) ->
      { Schedule.size = e.Subsolver.e_size; mode = `Gather; initial = e.Subsolver.e_srcs;
        wanted = e.Subsolver.e_dsts; tag = 0 }) d.Subsolver.entries)
  in
  let time_of xfers = Sim.time topo { Schedule.chunks = metas demand; xfers } in
  let fast = time_of (Subsolver.solve_demand Subsolver.Fast_only topo demand) in
  let refined =
    time_of
      (Subsolver.solve_demand
         (Subsolver.Milp_refine
            { e = 1.0; var_budget = 5000; node_limit = 200; time_limit = 20.0 })
         topo demand)
  in
  Alcotest.(check bool) "refinement never hurts" true (refined <= fast +. 1e-12)

(* The per-model MILP limit is a sub-budget that [solve_demand] narrows
   from the caller's: at a zero limit the refinement must stop at its
   greedy incumbent, although an ample limit improves on it here, and the
   caller's budget must stay unmarked (the model's own limit is not the
   caller's deadline). *)
let test_milp_zero_limit_keeps_greedy () =
  let topo =
    Builders.single_switch ~n:5
      ~link:(Syccl_topology.Link.make ~alpha:2e-6 ~gbps:100.0) ()
  in
  let demand =
    {
      Subsolver.d_stage = 0;
      d_dim = 0;
      d_group = 0;
      entries =
        [ { Subsolver.chunk = 0; e_size = 1e5; e_srcs = [ 0 ]; e_dsts = [ 1; 2; 3; 4 ] } ];
    }
  in
  let chunks =
    [| { Schedule.size = 1e5; mode = `Gather; initial = [ 0 ]; wanted = [ 1; 2; 3; 4 ];
         tag = 0 } |]
  in
  let time_of xfers = Sim.time topo { Schedule.chunks; xfers } in
  let refine time_limit =
    Subsolver.Milp_refine { e = 3.0; var_budget = 2000; node_limit = 60; time_limit }
  in
  let greedy = Subsolver.solve_demand Subsolver.Fast_only topo demand in
  let ample = Subsolver.solve_demand (refine 60.0) topo demand in
  check Alcotest.bool "an ample limit beats the greedy" true
    (time_of ample < time_of greedy -. 1e-12);
  let budget = Syccl_util.Budget.create ~seconds:60.0 () in
  let cut = Subsolver.solve_demand ~budget (refine 0.0) topo demand in
  check Alcotest.bool "a zero limit returns the greedy incumbent" true (cut = greedy);
  check Alcotest.bool "caller's budget unmarked" false
    (Syccl_util.Budget.degraded budget)

let suite =
  [
    ("plan chunk table", `Quick, test_plan_chunk_table);
    ("plan merges demands", `Quick, test_plan_merges_demands);
    ("class key groups isomorphic", `Quick, test_class_key_groups_isomorphic);
    ("transfer maps solution", `Quick, test_transfer_maps_solution);
    ("assemble validates", `Quick, test_assemble_validates);
    ("scatter plan routes chunks", `Quick, test_scatter_plan_routes_chunks);
    ("milp refine never worse", `Slow, test_milp_refine_never_worse);
    ("milp zero limit keeps greedy", `Quick, test_milp_zero_limit_keeps_greedy);
  ]
