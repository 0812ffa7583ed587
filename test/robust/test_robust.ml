(* Robustness suite: deadline budgets, fault injection, the degradation
   ladder, and pool crash isolation.  Fault-point tests arm the global
   harness; each wraps its body in Fun.protect so a failure cannot leak an
   armed configuration into later tests (alcotest runs sequentially). *)

module T = Syccl_topology.Topology
module Builders = Syccl_topology.Builders
module C = Syccl_collective.Collective
module Schedule = Syccl_sim.Schedule
module Validate = Syccl_sim.Validate
module Synth = Syccl.Synthesizer
module Budget = Syccl_util.Budget
module Faultpoint = Syccl_util.Faultpoint
module Clock = Syccl_util.Clock
module Milp = Syccl_milp.Milp
module Epoch_model = Syccl_teccl.Epoch_model
module Subsolver = Syccl.Subsolver

let check = Alcotest.check

(* Pool width under test; the CI matrix re-runs the suite with different
   values (same convention as test_pool / test_synthesizer). *)
let domains =
  match Sys.getenv_opt "SYCCL_TEST_DOMAINS" with
  | Some s -> (try max 1 (int_of_string s) with _ -> 2)
  | None -> 2

let with_faults spec f =
  Faultpoint.configure spec;
  Fun.protect ~finally:Faultpoint.clear f

(* --- Budget ------------------------------------------------------------ *)

let test_budget_basic () =
  check Alcotest.bool "unlimited never expires" false
    (Budget.expired Budget.unlimited);
  check Alcotest.bool "unlimited has no deadline" false
    (Budget.has_deadline Budget.unlimited);
  check Alcotest.bool "unlimited remaining" true
    (Budget.remaining Budget.unlimited = infinity);
  let b = Budget.create ~seconds:60.0 () in
  check Alcotest.bool "fresh budget alive" false (Budget.expired b);
  check Alcotest.bool "has deadline" true (Budget.has_deadline b);
  check Alcotest.bool "remaining positive" true (Budget.remaining b > 0.0);
  let dead = Budget.create ~seconds:(-1.0) () in
  check Alcotest.bool "negative budget expired" true (Budget.expired dead);
  check (Alcotest.float 0.0) "expired remaining" 0.0 (Budget.remaining dead)

let test_budget_sub () =
  let parent = Budget.create ~seconds:60.0 () in
  let child = Budget.sub parent in
  let narrowed = Budget.sub ~seconds:1.0 parent in
  check Alcotest.bool "sub deadline narrows" true
    (Budget.deadline narrowed < Budget.deadline parent);
  check Alcotest.bool "sub inherits deadline" true
    (Budget.deadline child = Budget.deadline parent)

(* Sweep elements and per-class sub-solves are sibling sub-budgets: each
   reports degradation on its own. *)
let test_budget_marks () =
  let parent = Budget.create ~seconds:60.0 () in
  let child = Budget.sub parent and sibling = Budget.sub parent in
  Budget.mark_degraded child;
  check Alcotest.bool "child marked" true (Budget.degraded child);
  check Alcotest.bool "mark does not smear to parent" false
    (Budget.degraded parent);
  check Alcotest.bool "sibling mark is local" false (Budget.degraded sibling);
  Budget.mark_degraded parent;
  check Alcotest.bool "parent marked" true (Budget.degraded parent)

(* --- Faultpoint --------------------------------------------------------- *)

let test_faultpoint_arming () =
  check Alcotest.bool "disarmed by default in tests" false
    (Faultpoint.configured ());
  check Alcotest.bool "disarmed probe never fires" false
    (Faultpoint.fire "nope.crash");
  with_faults "a.crash:1.0, b.slow:0.25" (fun () ->
      check Alcotest.bool "configured" true (Faultpoint.configured ());
      check (Alcotest.float 0.0) "p(a.crash)" 1.0
        (Faultpoint.probability "a.crash");
      check (Alcotest.float 0.0) "p(b.slow)" 0.25
        (Faultpoint.probability "b.slow");
      check (Alcotest.float 0.0) "unlisted point" 0.0
        (Faultpoint.probability "c.crash");
      check Alcotest.bool "unlisted never fires" false
        (Faultpoint.fire "c.crash"));
  check Alcotest.bool "cleared" false (Faultpoint.configured ())

let test_faultpoint_deterministic_extremes () =
  with_faults "x.crash:1.0,y.crash:0.0" (fun () ->
      for _ = 1 to 50 do
        check Alcotest.bool "p=1 always fires" true (Faultpoint.fire "x.crash");
        check Alcotest.bool "p=0 never fires" false (Faultpoint.fire "y.crash")
      done;
      match Faultpoint.inject "x.crash" with
      | () -> Alcotest.fail "inject at p=1 must raise"
      | exception Faultpoint.Injected name ->
          check Alcotest.string "payload is the point name" "x.crash" name)

let test_faultpoint_bad_spec () =
  check Alcotest.bool "malformed spec rejected" true
    (match Faultpoint.configure "nocolon" with
    | () -> Faultpoint.clear (); false
    | exception Invalid_argument _ -> true);
  check Alcotest.bool "bad probability rejected" true
    (match Faultpoint.configure "a.crash:two" with
    | () -> Faultpoint.clear (); false
    | exception Invalid_argument _ -> true)

let test_faultpoint_slow () =
  with_faults "z.slow:1.0" (fun () ->
      let t0 = Clock.now () in
      Faultpoint.slow ~seconds:0.05 "z.slow";
      check Alcotest.bool "slow probe sleeps" true (Clock.now () -. t0 >= 0.04));
  let t0 = Clock.now () in
  Faultpoint.slow ~seconds:0.05 "z.slow";
  check Alcotest.bool "disarmed slow is free" true (Clock.now () -. t0 < 0.04)

(* --- MILP limit outcomes ------------------------------------------------ *)

(* min x, integer x >= 0.5: optimum x = 1. *)
let tiny_model () =
  let m = Milp.create () in
  let x = Milp.add_var m ~integer:true ~obj:1.0 "x" in
  Milp.add_ge m [ (x, 1.0) ] 0.5;
  m

let test_milp_limit_no_incumbent () =
  let r = Milp.solve ~node_limit:0 (tiny_model ()) in
  check Alcotest.bool "Limit without incumbent" true (r.Milp.status = Milp.Limit)

let test_milp_limit_with_incumbent () =
  let r = Milp.solve ~node_limit:0 ~incumbent:[| 1.0 |] (tiny_model ()) in
  check Alcotest.bool "Feasible on limit with incumbent" true
    (r.Milp.status = Milp.Feasible);
  check (Alcotest.float 1e-9) "incumbent returned" 1.0 r.Milp.x.(0);
  (* Sanity: without limits the same model solves to optimality. *)
  let opt = Milp.solve (tiny_model ()) in
  check Alcotest.bool "optimal" true (opt.Milp.status = Milp.Optimal);
  check (Alcotest.float 1e-9) "x*" 1.0 opt.Milp.x.(0)

(* A budget expired at creation stops the solve at its first check. *)
let test_milp_cancelled_budget () =
  let b = Budget.create ~seconds:0.0 () in
  let r = Milp.solve ~budget:b (tiny_model ()) in
  check Alcotest.bool "expired budget stops at Limit" true
    (r.Milp.status = Milp.Limit);
  let r2 = Milp.solve ~budget:b ~incumbent:[| 1.0 |] (tiny_model ()) in
  check Alcotest.bool "expired budget keeps incumbent" true
    (r2.Milp.status = Milp.Feasible)

(* --- Epoch model refusal / incumbent round-trip ------------------------- *)

(* An AllGather-style demand inside one server group: chunk i starts at
   GPU [base+i] and is wanted by the other group members; the incumbent is
   the direct one-hop send from owner to every peer. *)
let group_spec topo ~dim ~group ~tau ~horizon =
  let gpus =
    List.filter
      (fun v -> T.group_of topo ~dim v = group)
      (List.init (T.num_gpus topo) Fun.id)
  in
  let arr = Array.of_list gpus in
  let chunks =
    Array.map
      (fun owner ->
        {
          Schedule.size = 8.0;
          mode = `Gather;
          initial = [ owner ];
          wanted = List.filter (fun v -> v <> owner) gpus;
          tag = 0;
        })
      arr
  in
  let spec =
    {
      Epoch_model.topo;
      chunks;
      edges = Epoch_model.group_edges topo ~dim ~group;
      tau;
      horizon;
    }
  in
  let xfers =
    List.concat
      (Array.to_list
         (Array.mapi
            (fun c owner ->
              List.mapi
                (fun p dst -> { Schedule.chunk = c; src = owner; dst; dim; prio = p })
                (List.filter (fun v -> v <> owner) gpus))
            arr))
  in
  (spec, { Schedule.chunks; xfers })

let test_epoch_oversized_refusal () =
  let topo = Builders.a100 ~servers:2 in
  let spec, incumbent = group_spec topo ~dim:0 ~group:0 ~tau:1e-4 ~horizon:24 in
  check Alcotest.bool "model is oversized" true
    (Epoch_model.var_count spec > 3000);
  check Alcotest.bool "refused without incumbent" true
    (Epoch_model.solve spec = None);
  match Epoch_model.solve ?incumbent:(Epoch_model.replay spec incumbent) spec with
  | None -> Alcotest.fail "oversized model must replay the incumbent"
  | Some (s, epochs) ->
      check Alcotest.int "incumbent schedule returned" (Schedule.num_xfers incumbent)
        (Schedule.num_xfers s);
      check Alcotest.bool "epochs within horizon" true
        (epochs > 0 && epochs <= spec.Epoch_model.horizon)

let test_epoch_limit_round_trip () =
  (* Small enough to build the model, but node_limit 0 forces the Limit
     path; the incumbent must come back as a schedule that still covers
     the demand. *)
  let topo = Builders.fig3 () in
  let spec, incumbent = group_spec topo ~dim:0 ~group:0 ~tau:1e-4 ~horizon:24 in
  check Alcotest.bool "model is small enough to solve" true
    (Epoch_model.var_count spec <= 3000);
  match
    Epoch_model.solve ~node_limit:0
      ?incumbent:(Epoch_model.replay spec incumbent)
      spec
  with
  | None -> Alcotest.fail "Limit with incumbent must yield a schedule"
  | Some (s, epochs) ->
      check Alcotest.bool "epochs within horizon" true
        (epochs > 0 && epochs <= spec.Epoch_model.horizon);
      check Alcotest.bool "replay accepts the returned schedule" true
        (Epoch_model.replay spec s <> None)

(* --- Degradation ladder ------------------------------------------------- *)

let a100 = Builders.a100 ~servers:2

let validate_outcome topo coll (o : Synth.outcome) =
  match Validate.validate topo coll o.Synth.schedules with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("outcome failed validation: " ^ e)

let test_deadline_bounded () =
  Synth.reset_caches ();
  let coll = C.make C.AllGather ~n:(T.num_gpus a100) ~size:1.048576e6 in
  let config = { Synth.default_config with domains; deadline = Some 0.05 } in
  let t0 = Clock.now () in
  let o = Synth.synthesize ~config a100 coll in
  let elapsed = Clock.now () -. t0 in
  validate_outcome a100 coll o;
  check Alcotest.bool
    (Printf.sprintf "wall time bounded (%.3fs)" elapsed)
    true (elapsed < 1.5);
  (* An expired-at-birth budget must still return a validated schedule,
     from a degraded rung. *)
  let config = { config with deadline = Some (-1.0) } in
  let o = Synth.synthesize ~config a100 coll in
  validate_outcome a100 coll o;
  check Alcotest.bool "degraded rung reported" true (o.Synth.degraded <> Synth.Full)

(* A MILP refinement that returns past the deadline may have been cut
   short by it, so the sub-solve must report the budget degraded: else its
   class is memoized and the outcome is stored as a full-pipeline one,
   under a registry key that does not carry the deadline.  After a counter
   reset the p90 skip estimate sits at its 0.01 s floor, so the
   refinement starts under a 0.1 s budget; the armed slow probe then
   sleeps 0.2 s at solve entry. *)
let test_subsolver_milp_past_deadline () =
  Syccl_util.Counters.reset ();
  let topo = Builders.h800_scaled ~servers:2 ~gpus_per_server:2 in
  let entry chunk src dst =
    { Subsolver.chunk; e_size = 65536.0; e_srcs = [ src ]; e_dsts = [ dst ] }
  in
  let demand =
    {
      Subsolver.d_stage = 0;
      d_dim = 0;
      d_group = 0;
      entries = [ entry 0 0 1; entry 1 1 0 ];
    }
  in
  let strategy =
    Subsolver.Milp_refine
      { e = 3.0; var_budget = 2000; node_limit = 20; time_limit = 2.0 }
  in
  with_faults "milp.slow:1.0" (fun () ->
      let b = Budget.create ~seconds:0.1 () in
      let t0 = Clock.now () in
      ignore (Subsolver.solve_demand ~budget:b strategy topo demand);
      check Alcotest.bool "the refinement ran into the slow probe" true
        (Clock.now () -. t0 >= 0.15);
      check Alcotest.bool "budget marked degraded" true (Budget.degraded b))

let test_subsolver_crash_sweep () =
  with_faults "subsolver.crash:1.0" (fun () ->
      Synth.reset_caches ();
      let n = T.num_gpus a100 in
      let colls =
        List.map (fun size -> C.make C.AllGather ~n ~size) [ 1e3; 6.5536e4; 1.048576e6 ]
      in
      let config = { Synth.default_config with domains } in
      let run () = Synth.synthesize_all ~config a100 colls in
      let outs = run () in
      check Alcotest.int "sweep completes" (List.length colls) (List.length outs);
      List.iter2
        (fun coll (o : Synth.outcome) ->
          check Alcotest.string "every element fell back" "fallback"
            (Synth.level_name o.Synth.degraded);
          validate_outcome a100 coll o)
        colls outs;
      (* Deterministic: a second run (same faults, same pool) produces the
         same schedules. *)
      let outs2 = run () in
      List.iter2
        (fun (a : Synth.outcome) (b : Synth.outcome) ->
          check Alcotest.bool "deterministic under injection" true
            (a.Synth.schedules = b.Synth.schedules))
        outs outs2)

let test_pool_crash_isolation () =
  with_faults "pool.crash:1.0" (fun () ->
      Synth.reset_caches ();
      let n = T.num_gpus a100 in
      let colls =
        List.map (fun size -> C.make C.AllGather ~n ~size) [ 1e3; 6.5536e4 ]
      in
      let config = { Synth.default_config with domains } in
      let results = Synth.synthesize_all_results ~config a100 colls in
      check Alcotest.int "per-element results" (List.length colls)
        (List.length results);
      List.iter
        (fun r ->
          match r with
          | Error e ->
              check Alcotest.bool "error names the fault" true
                (String.length e > 0)
          | Ok _ -> Alcotest.fail "pool.crash:1.0 must fail every pooled task")
        results;
      (* The plain sweep substitutes validated fallbacks instead. *)
      let outs = Synth.synthesize_all ~config a100 colls in
      List.iter2
        (fun coll (o : Synth.outcome) ->
          check Alcotest.string "fallback substituted" "fallback"
            (Synth.level_name o.Synth.degraded);
          validate_outcome a100 coll o)
        colls outs)

let test_sim_crash_fallback () =
  with_faults "sim.crash:1.0" (fun () ->
      Synth.reset_caches ();
      let coll = C.make C.AllGather ~n:(T.num_gpus a100) ~size:6.5536e4 in
      let config = { Synth.default_config with domains } in
      let o = Synth.synthesize ~config a100 coll in
      check Alcotest.string "simulator crash degrades to fallback" "fallback"
        (Synth.level_name o.Synth.degraded);
      (* The fallback is simulator-free, so its predicted time is unknowable
         while the simulator is down. *)
      check Alcotest.bool "time is nan" true (Float.is_nan o.Synth.time);
      validate_outcome a100 coll o)

let test_fallback_schedules_validate () =
  let n = T.num_gpus a100 in
  List.iter
    (fun kind ->
      let coll = C.make kind ~n ~size:1.048576e6 in
      let phases = Syccl_baselines.Fallback.schedule a100 coll in
      match Validate.validate a100 coll phases with
      | Ok () -> ()
      | Error e ->
          Alcotest.fail
            (Format.asprintf "%a fallback invalid: %s" C.pp coll e))
    [ C.AllGather; C.ReduceScatter; C.AllReduce; C.AllToAll; C.Broadcast;
      C.Reduce; C.Scatter; C.Gather ]

let suite =
  [
    Alcotest.test_case "budget basics" `Quick test_budget_basic;
    Alcotest.test_case "budget sub" `Quick test_budget_sub;
    Alcotest.test_case "budget marks" `Quick test_budget_marks;
    Alcotest.test_case "faultpoint arming" `Quick test_faultpoint_arming;
    Alcotest.test_case "faultpoint determinism" `Quick
      test_faultpoint_deterministic_extremes;
    Alcotest.test_case "faultpoint bad spec" `Quick test_faultpoint_bad_spec;
    Alcotest.test_case "faultpoint slow" `Quick test_faultpoint_slow;
    Alcotest.test_case "milp limit, no incumbent" `Quick
      test_milp_limit_no_incumbent;
    Alcotest.test_case "milp limit, incumbent" `Quick
      test_milp_limit_with_incumbent;
    Alcotest.test_case "milp cancelled budget" `Quick test_milp_cancelled_budget;
    Alcotest.test_case "epoch oversized refusal" `Quick
      test_epoch_oversized_refusal;
    Alcotest.test_case "epoch limit round-trip" `Quick
      test_epoch_limit_round_trip;
    Alcotest.test_case "deadline bounded synthesis" `Quick test_deadline_bounded;
    Alcotest.test_case "subsolver milp past deadline" `Quick
      test_subsolver_milp_past_deadline;
    Alcotest.test_case "subsolver crash sweep" `Quick test_subsolver_crash_sweep;
    Alcotest.test_case "pool crash isolation" `Quick test_pool_crash_isolation;
    Alcotest.test_case "sim crash fallback" `Quick test_sim_crash_fallback;
    Alcotest.test_case "fallback schedules validate" `Quick
      test_fallback_schedules_validate;
  ]

let () = Alcotest.run "syccl-robust" [ ("robust", suite) ]
