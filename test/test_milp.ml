(* Tests for the from-scratch LP/MILP solver. *)

module Lp = Syccl_milp.Lp
module Milp = Syccl_milp.Milp
module Xrand = Syccl_util.Xrand

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

let solve_lp ?max_iters p = Lp.solve ?max_iters p

let test_lp_basic () =
  (* max x+y s.t. x+2y<=4, 3x+y<=6. *)
  let p =
    {
      Lp.num_vars = 2;
      objective = [| -1.0; -1.0 |];
      rows =
        [
          ([ (0, 1.0); (1, 2.0) ], Lp.Le, 4.0);
          ([ (0, 3.0); (1, 1.0) ], Lp.Le, 6.0);
        ];
    }
  in
  match solve_lp p with
  | Lp.Optimal { x; obj } ->
      check (Alcotest.float 1e-6) "obj" (-2.8) obj;
      check (Alcotest.float 1e-6) "x" 1.6 x.(0);
      check (Alcotest.float 1e-6) "y" 1.2 x.(1)
  | _ -> Alcotest.fail "optimal expected"

let test_lp_equality_and_ge () =
  (* min 2x+3y s.t. x+y = 10, x >= 3 -> x=7? No: minimize picks y small...
     min 2x+3y with x+y=10, x>=3: substitute y=10-x: 2x+30-3x = 30-x, minimized
     by x max = 10 -> x=10, y=0, obj=20. *)
  let p =
    {
      Lp.num_vars = 2;
      objective = [| 2.0; 3.0 |];
      rows = [ ([ (0, 1.0); (1, 1.0) ], Lp.Eq, 10.0); ([ (0, 1.0) ], Lp.Ge, 3.0) ];
    }
  in
  match solve_lp p with
  | Lp.Optimal { x; obj } ->
      check (Alcotest.float 1e-6) "obj" 20.0 obj;
      check (Alcotest.float 1e-6) "x" 10.0 x.(0)
  | _ -> Alcotest.fail "optimal expected"

let test_lp_infeasible () =
  let p =
    {
      Lp.num_vars = 1;
      objective = [| 1.0 |];
      rows = [ ([ (0, 1.0) ], Lp.Ge, 3.0); ([ (0, 1.0) ], Lp.Le, 2.0) ];
    }
  in
  check Alcotest.bool "infeasible" true (solve_lp p = Lp.Infeasible)

let test_lp_unbounded () =
  let p = { Lp.num_vars = 1; objective = [| -1.0 |]; rows = [] } in
  check Alcotest.bool "unbounded" true (solve_lp p = Lp.Unbounded)

let test_lp_negative_rhs () =
  (* -x <= -5 means x >= 5. *)
  let p =
    { Lp.num_vars = 1; objective = [| 1.0 |]; rows = [ ([ (0, -1.0) ], Lp.Le, -5.0) ] }
  in
  match solve_lp p with
  | Lp.Optimal { x; _ } -> check (Alcotest.float 1e-6) "x" 5.0 x.(0)
  | _ -> Alcotest.fail "optimal expected"

(* Random feasible LPs: the solver's optimum must not exceed the objective of
   any feasible point we can construct. *)
let lp_optimality_prop =
  QCheck.Test.make ~name:"LP optimum <= random feasible points" ~count:60
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let r = Xrand.create seed in
      let nv = 2 + Xrand.int r 3 in
      let nrows = 1 + Xrand.int r 4 in
      (* Constraints a.x <= b with a >= 0 and b > 0 keep 0 feasible. *)
      let rows =
        List.init nrows (fun _ ->
            ( List.init nv (fun j -> (j, Xrand.float r 3.0)),
              Lp.Le,
              1.0 +. Xrand.float r 5.0 ))
      in
      let objective = Array.init nv (fun _ -> Xrand.float r 4.0 -. 2.0) in
      (* Bound every variable so the LP cannot be unbounded. *)
      let bounds = List.init nv (fun j -> ([ (j, 1.0) ], Lp.Le, 10.0)) in
      let p = { Lp.num_vars = nv; objective; rows = rows @ bounds } in
      match solve_lp p with
      | Lp.Optimal { obj; x } ->
          (* Check solver's point is feasible and beats random feasible pts. *)
          let feasible pt =
            List.for_all
              (fun (terms, _, b) ->
                List.fold_left (fun a (j, c) -> a +. (c *. pt.(j))) 0.0 terms
                <= b +. 1e-6)
              (rows @ bounds)
          in
          feasible x
          && List.for_all
               (fun _ ->
                 let pt = Array.init nv (fun _ -> Xrand.float r 2.0) in
                 if feasible pt then
                   let o =
                     Array.to_list (Array.mapi (fun j c -> c *. pt.(j)) objective)
                     |> List.fold_left ( +. ) 0.0
                   in
                   obj <= o +. 1e-6
                 else true)
               (List.init 20 (fun i -> i))
      | _ -> false)

(* --- MILP --- *)

let test_milp_knapsack () =
  let m = Milp.create () in
  let a = Milp.binary m ~obj:(-5.0) "a" in
  let b = Milp.binary m ~obj:(-4.0) "b" in
  let c = Milp.binary m ~obj:(-3.0) "c" in
  Milp.add_le m [ (a, 2.0); (b, 3.0); (c, 1.0) ] 5.0;
  let r = Milp.solve m in
  check Alcotest.bool "optimal" true (r.Milp.status = Milp.Optimal);
  check (Alcotest.float 1e-6) "obj" (-9.0) r.Milp.obj

let test_milp_integrality_matters () =
  (* LP relaxation would take x = 1.5; MILP must round down. *)
  let m = Milp.create () in
  let x = Milp.add_var m ~integer:true ~obj:(-1.0) "x" in
  Milp.add_le m [ (x, 2.0) ] 3.0;
  let r = Milp.solve m in
  check Alcotest.bool "optimal" true (r.Milp.status = Milp.Optimal);
  check (Alcotest.float 1e-6) "x integral" 1.0 r.Milp.x.(x)

let test_milp_infeasible () =
  let m = Milp.create () in
  let x = Milp.binary m "x" in
  Milp.add_ge m [ (x, 1.0) ] 2.0;
  check Alcotest.bool "infeasible" true ((Milp.solve m).Milp.status = Milp.Infeasible)

let test_milp_incumbent_checked () =
  let m = Milp.create () in
  let x = Milp.binary m ~obj:(-1.0) "x" in
  Milp.add_le m [ (x, 1.0) ] 1.0;
  (* A bogus incumbent must be rejected, a valid one accepted. *)
  check Alcotest.bool "bogus rejected" false (Milp.check_feasible m [| 2.0 |]);
  let r = Milp.solve ~incumbent:[| 1.0 |] m in
  check (Alcotest.float 1e-6) "optimal found" (-1.0) r.Milp.obj

(* MILP vs brute force on random small knapsacks. *)
let milp_knapsack_prop =
  QCheck.Test.make ~name:"MILP matches brute force on knapsacks" ~count:40
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let r = Xrand.create seed in
      let nv = 3 + Xrand.int r 4 in
      let values = Array.init nv (fun _ -> 1.0 +. Xrand.float r 9.0) in
      let weights = Array.init nv (fun _ -> 1.0 +. Xrand.float r 9.0) in
      let cap = 5.0 +. Xrand.float r 15.0 in
      let m = Milp.create () in
      let vars =
        Array.init nv (fun j -> Milp.binary m ~obj:(-.values.(j)) (string_of_int j))
      in
      Milp.add_le m (List.init nv (fun j -> (vars.(j), weights.(j)))) cap;
      let res = Milp.solve m in
      (* Brute force. *)
      let best = ref 0.0 in
      for mask = 0 to (1 lsl nv) - 1 do
        let w = ref 0.0 and v = ref 0.0 in
        for j = 0 to nv - 1 do
          if mask land (1 lsl j) <> 0 then begin
            w := !w +. weights.(j);
            v := !v +. values.(j)
          end
        done;
        if !w <= cap && !v > !best then best := !v
      done;
      res.Milp.status = Milp.Optimal && Float.abs (res.Milp.obj +. !best) < 1e-6)

let test_milp_assignment () =
  (* 3x3 assignment problem solved to optimality. *)
  let cost = [| [| 4.0; 1.0; 3.0 |]; [| 2.0; 0.0; 5.0 |]; [| 3.0; 2.0; 2.0 |] |] in
  let m = Milp.create () in
  let x = Array.init 3 (fun i -> Array.init 3 (fun j ->
      Milp.binary m ~obj:cost.(i).(j) (Printf.sprintf "x%d%d" i j)))
  in
  for i = 0 to 2 do
    Milp.add_eq m (List.init 3 (fun j -> (x.(i).(j), 1.0))) 1.0;
    Milp.add_eq m (List.init 3 (fun j -> (x.(j).(i), 1.0))) 1.0
  done;
  let r = Milp.solve m in
  check Alcotest.bool "optimal" true (r.Milp.status = Milp.Optimal);
  (* Optimal assignment: (0,1)=1, (1,0)=2, (2,2)=2 -> 5. *)
  check (Alcotest.float 1e-6) "objective" 5.0 r.Milp.obj

let test_lp_iter_limit () =
  let p =
    {
      Lp.num_vars = 3;
      objective = [| -1.0; -1.0; -1.0 |];
      rows =
        [
          ([ (0, 1.0); (1, 1.0) ], Lp.Le, 4.0);
          ([ (1, 1.0); (2, 1.0) ], Lp.Le, 4.0);
          ([ (0, 1.0); (2, 1.0) ], Lp.Le, 4.0);
        ];
    }
  in
  check Alcotest.bool "iteration budget respected" true
    (Lp.solve ~max_iters:0 p = Lp.Iter_limit)

let test_milp_continuous_only () =
  (* With no integer variables the MILP reduces to one LP solve. *)
  let m = Milp.create () in
  let x = Milp.add_var m ~ub:2.5 ~obj:(-1.0) "x" in
  let r = Milp.solve m in
  check Alcotest.bool "optimal" true (r.Milp.status = Milp.Optimal);
  check (Alcotest.float 1e-6) "continuous optimum" 2.5 r.Milp.x.(x);
  check Alcotest.int "no branching" 0 r.Milp.nodes

let test_milp_node_limit () =
  (* A 0-node budget with no feasible incumbent must report Limit. *)
  let m = Milp.create () in
  let a = Milp.binary m ~obj:(-3.0) "a" in
  let b = Milp.binary m ~obj:(-2.0) "b" in
  Milp.add_le m [ (a, 2.0); (b, 2.0) ] 3.0;
  let r = Milp.solve ~node_limit:0 m in
  check Alcotest.bool "limited" true
    (r.Milp.status = Milp.Limit || r.Milp.status = Milp.Feasible)

let suite =
  [
    ("lp basic", `Quick, test_lp_basic);
    ("lp iter limit", `Quick, test_lp_iter_limit);
    ("milp continuous only", `Quick, test_milp_continuous_only);
    ("milp node limit", `Quick, test_milp_node_limit);
    ("lp equality and ge", `Quick, test_lp_equality_and_ge);
    ("lp infeasible", `Quick, test_lp_infeasible);
    ("lp unbounded", `Quick, test_lp_unbounded);
    ("lp negative rhs", `Quick, test_lp_negative_rhs);
    qtest lp_optimality_prop;
    ("milp knapsack", `Quick, test_milp_knapsack);
    ("milp integrality", `Quick, test_milp_integrality_matters);
    ("milp infeasible", `Quick, test_milp_infeasible);
    ("milp incumbent checked", `Quick, test_milp_incumbent_checked);
    qtest milp_knapsack_prop;
    ("milp assignment", `Quick, test_milp_assignment);
  ]

(* --- differential regressions (shrunk from `syccl fuzz -p lp-differential`)

   The dense two-phase tableau is retired from production but kept as
   Lp_dense, the differential oracle; these are hand-shrunk witnesses of
   the corner cases the fuzzer leaned on hardest. *)

let agree ?(tol = 1e-6) name p =
  let close a b =
    Float.abs (a -. b) <= tol *. (1.0 +. Float.max (Float.abs a) (Float.abs b))
  in
  match (Syccl_check.Lp_dense.solve p, Lp.solve p) with
  | Lp.Optimal { obj = da; _ }, Lp.Optimal { obj = ra; _ } ->
      check Alcotest.bool (name ^ ": objectives agree") true (close da ra)
  | Lp.Infeasible, Lp.Infeasible | Lp.Unbounded, Lp.Unbounded -> ()
  | _ -> Alcotest.fail (name ^ ": status disagrees with dense oracle")

let test_lp_dense_zero_tie () =
  (* seed 7 case 1979: optimum exactly 0, reached through a degenerate tie;
     the revised solver lands one rounding ulp below. *)
  agree "zero-tie"
    {
      Lp.num_vars = 4;
      objective = [| -1.5; 1.0; -3.0; 1.0 |];
      rows =
        [
          ([ (0, -3.0); (3, 2.0) ], Lp.Ge, 0.0);
          ([ (0, 2.0); (2, 1.0) ], Lp.Ge, 7.0);
          ([ (3, 2.0); (0, -1.0); (2, 3.0); (1, 4.0) ], Lp.Ge, 9.0);
          ([ (3, -0.5) ], Lp.Le, 6.0);
          ([ (2, 1.0) ], Lp.Le, 0.0);
        ];
    }

let test_lp_dense_eq_artificials () =
  (* Equality rows force the cold start through phase-1 artificials. *)
  agree "eq-artificials"
    {
      Lp.num_vars = 3;
      objective = [| 1.0; 2.0; -1.0 |];
      rows =
        [
          ([ (0, 1.0); (1, 1.0); (2, 1.0) ], Lp.Eq, 4.0);
          ([ (0, 1.0); (1, -1.0) ], Lp.Eq, 1.0);
          ([ (2, 1.0) ], Lp.Le, 2.0);
        ];
    };
  (* Inconsistent equalities: both sides must report infeasible. *)
  agree "eq-inconsistent"
    {
      Lp.num_vars = 2;
      objective = [| 1.0; 1.0 |];
      rows =
        [
          ([ (0, 1.0); (1, 1.0) ], Lp.Eq, 2.0);
          ([ (0, 2.0); (1, 2.0) ], Lp.Eq, 5.0);
        ];
    }

let test_lp_bounded_warm () =
  (* A branch-and-bound-shaped pair of solves: the child tightens one upper
     bound and warm-starts from the parent's basis.  The warm re-solve must
     reproduce the cold answer exactly and register as a warm hit. *)
  let p =
    {
      Lp.num_vars = 2;
      objective = [| -2.0; -3.0 |];
      rows =
        [
          ([ (0, 1.0); (1, 2.0) ], Lp.Le, 8.0);
          ([ (0, 3.0); (1, 1.0) ], Lp.Le, 9.0);
        ];
    }
  in
  let lb = [| 0.0; 0.0 |] and ub = [| infinity; infinity |] in
  let parent, state = Lp.solve_bounded ~lb ~ub p in
  (match parent with
  | Lp.Optimal { obj; _ } -> check (Alcotest.float 1e-9) "parent obj" (-13.0) obj
  | _ -> Alcotest.fail "parent optimal expected");
  let state = Option.get state in
  let ub' = [| 1.0; infinity |] in
  let hits0 = Syccl_util.Counters.value "lp.warm_hits" in
  let warm_child, _ = Lp.solve_bounded ~warm:state ~lb ~ub:ub' p in
  let cold_child, _ = Lp.solve_bounded ~lb ~ub:ub' p in
  (match (warm_child, cold_child) with
  | Lp.Optimal { obj = a; x }, Lp.Optimal { obj = b; _ } ->
      check (Alcotest.float 1e-9) "warm = cold" b a;
      check Alcotest.bool "child respects bound" true (x.(0) <= 1.0 +. 1e-9)
  | _ -> Alcotest.fail "child optimal expected");
  check Alcotest.bool "warm hit counted" true
    (Syccl_util.Counters.value "lp.warm_hits" > hits0)

let test_milp_engine_parity () =
  (* Branch-and-bound over the revised simplex and over the retired dense
     tableau ([~relax:Lp_dense.relax], bounds written as rows) must agree
     on status and objective: the milp-differential property, on a fixed
     seed's random bounded MILPs. *)
  let report =
    Syccl_check.Fuzz.run ~props:[ "milp-differential" ] ~seed:19 ~cases:300 ()
  in
  List.iter
    (fun (f : Syccl_check.Fuzz.failure) ->
      Alcotest.failf "case %d: %s" f.case f.detail)
    report.Syccl_check.Fuzz.failures;
  match report.Syccl_check.Fuzz.stats with
  | [ s ] ->
      check Alcotest.bool "most cases compared" true (s.passed > s.cases_run / 2)
  | _ -> Alcotest.fail "milp-differential is not in the catalogue"

(* Shrunk from milp-differential: branching an integer variable with a
   fractional upper bound (x in [1, 1.5]) makes a child with x >= 2 past
   its own bound.  That child is infeasible; the revised simplex used to
   return a point at the crossed bound, here x4 = 2, which made the MILP
   claim objective -0.25 from an infeasible point. *)
let test_milp_branch_past_bound () =
  let m = Milp.create () in
  let var lb ub integer obj = Milp.add_var m ~lb ~ub ~integer ~obj "x" in
  let x0 = var 0.0 0.5 false (-0.5) in
  let x1 = var 1.0 1.0 true (-2.0) in
  let x2 = var 0.0 4.5 false 1.0 in
  let x3 = var 0.0 1.0 true 2.0 in
  let x4 = var 1.0 1.5 true 0.0 in
  let x5 = var 2.0 5.0 true 1.0 in
  Milp.add_le m [ (x0, -4.0); (x5, 1.0); (x3, 1.0) ] 10.0;
  Milp.add_ge m [ (x4, 1.0); (x1, 1.5); (x3, 2.0); (x2, -2.0); (x0, 2.0) ] 4.0;
  let r = Milp.solve m in
  check Alcotest.bool "optimal" true (r.Milp.status = Milp.Optimal);
  check Alcotest.bool "feasible point" true (Milp.check_feasible m r.Milp.x);
  check (Alcotest.float 1e-6) "objective" 1.75 r.Milp.obj;
  let lb = [| 2.0 |] and ub = [| 1.5 |] in
  let p = { Lp.num_vars = 1; objective = [| 1.0 |]; rows = [] } in
  check Alcotest.bool "crossed bounds are infeasible" true
    (fst (Lp.solve_bounded ~lb ~ub p) = Lp.Infeasible)

let test_milp_flow_certificate () =
  (* An external lower bound matching the optimum stops the search with the
     certificate bit set and still returns the right objective. *)
  let m = Milp.create () in
  let x = Milp.add_var m ~ub:3.0 ~integer:true ~obj:1.0 "x" in
  let y = Milp.add_var m ~ub:3.0 ~integer:true ~obj:1.0 "y" in
  Milp.add_ge m [ (x, 1.0); (y, 1.0) ] 3.0;
  let r = Milp.solve ~lower_bound:3.0 ~gap:0.5 m in
  check Alcotest.bool "certified optimal" true (r.Milp.status = Milp.Optimal);
  check Alcotest.bool "certificate set" true r.Milp.certified;
  check (Alcotest.float 1e-6) "certified obj" 3.0 r.Milp.obj

let suite =
  suite
  @ [
      ("lp dense zero tie", `Quick, test_lp_dense_zero_tie);
      ("lp dense eq artificials", `Quick, test_lp_dense_eq_artificials);
      ("lp bounded warm", `Quick, test_lp_bounded_warm);
      ("milp engine parity", `Quick, test_milp_engine_parity);
      ("milp branch past bound", `Quick, test_milp_branch_past_bound);
      ("milp flow certificate", `Quick, test_milp_flow_certificate);
    ]
