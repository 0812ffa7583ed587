type var = { lb : float; ub : float; integer : bool; obj : float; vname : string }

type model = {
  mutable vars : var list;  (* reversed *)
  mutable nvars : int;
  mutable rows : ((int * float) list * Lp.cmp * float) list;  (* reversed *)
}

let create () = { vars = []; nvars = 0; rows = [] }

let add_var m ?(lb = 0.0) ?(ub = infinity) ?(integer = false) ?(obj = 0.0) vname =
  if lb < 0.0 then invalid_arg "Milp.add_var: lb < 0 unsupported";
  if ub < lb then invalid_arg "Milp.add_var: ub < lb";
  let id = m.nvars in
  m.vars <- { lb; ub; integer; obj; vname } :: m.vars;
  m.nvars <- m.nvars + 1;
  id

let binary m ?obj vname = add_var m ~lb:0.0 ~ub:1.0 ~integer:true ?obj vname

let num_vars m = m.nvars

let add_row m terms cmp rhs = m.rows <- (terms, cmp, rhs) :: m.rows

let add_le m terms rhs = add_row m terms Lp.Le rhs
let add_ge m terms rhs = add_row m terms Lp.Ge rhs
let add_eq m terms rhs = add_row m terms Lp.Eq rhs

type status = Optimal | Feasible | Infeasible | Unbounded | Limit

type result = {
  status : status;
  x : float array;
  obj : float;
  nodes : int;
  certified : bool;
}

let int_tol = 1e-6

let vars_array m : var array = Array.of_list (List.rev m.vars)

let objective m =
  let vs = vars_array m in
  Array.map (fun (v : var) -> v.obj) vs

let eval_obj m x =
  let acc = ref 0.0 in
  Array.iteri (fun j (v : var) -> acc := !acc +. (v.obj *. x.(j))) (vars_array m);
  !acc

let check_feasible m x =
  let vs = vars_array m in
  Array.length x = m.nvars
  && Array.for_all2
       (fun v xi ->
         xi >= v.lb -. int_tol
         && xi <= v.ub +. int_tol
         && ((not v.integer) || Float.abs (xi -. Float.round xi) <= int_tol))
       vs x
  && List.for_all
       (fun (terms, cmp, rhs) ->
         let lhs = List.fold_left (fun a (j, c) -> a +. (c *. x.(j))) 0.0 terms in
         match cmp with
         | Lp.Le -> lhs <= rhs +. 1e-6
         | Lp.Ge -> lhs >= rhs -. 1e-6
         | Lp.Eq -> Float.abs (lhs -. rhs) <= 1e-6)
       m.rows

(* A branch-and-bound node: the branching bounds accumulated on the path
   from the root, the parent's LP bound, and the parent's final basis for
   warm-starting (children share the parent's immutable snapshot). *)
type node = {
  extra : (int * Lp.cmp * float) list;
  lp_bound : float;
  depth : int;
  warm : Lp.basis_state option;
}

let h_nodes = Syccl_util.Counters.histogram "milp.nodes_per_solve"
let h_solve_s = Syccl_util.Counters.histogram "milp.solve_s"
let c_solves = Syccl_util.Counters.int_counter "milp.solves"
let c_nodes = Syccl_util.Counters.int_counter "milp.nodes"
let c_flow_certified = Syccl_util.Counters.int_counter "milp.flow_certified"

(* Nodes are explored in fixed-size waves: up to [wave_width] nodes are
   popped from the best-first queue, their LP relaxations solved (in
   parallel when a pool is given), and the results folded back in pop
   order.  The width is a constant — NOT the pool size — so the explored
   tree is identical at every parallelism level; the pool only shortens
   the wall time of each wave. *)
let wave_width = 8

(* Simplex pivots allowed per relaxation, so a single LP cannot blow the
   time budget between checks. *)
let lp_iter_limit = 4000

let solve ?(node_limit = 2000) ?(budget = Syccl_util.Budget.unlimited)
    ?incumbent ?pool ?lower_bound ?(gap = 1e-6) ?(relax = Lp.solve_bounded) m =
  Syccl_util.Trace.with_span ~cat:"milp" "milp.solve"
    ~args:
      [
        ("vars", string_of_int m.nvars);
        ("rows", string_of_int (List.length m.rows));
        ("node_limit", string_of_int node_limit);
      ]
  @@ fun () ->
  Syccl_util.Faultpoint.slow "milp.slow";
  let t_solve = Syccl_util.Clock.now () in
  let vs = vars_array m in
  let obj = objective m in
  let base_problem =
    { Lp.num_vars = m.nvars; objective = obj; rows = List.rev m.rows }
  in
  let lp_solve extra warm =
    let lb = Array.map (fun v -> v.lb) vs in
    let ub = Array.map (fun v -> v.ub) vs in
    List.iter
      (fun (j, c, b) ->
        match (c : Lp.cmp) with
        | Lp.Le -> ub.(j) <- Float.min ub.(j) b
        | Lp.Ge -> lb.(j) <- Float.max lb.(j) b
        | Lp.Eq ->
            lb.(j) <- Float.max lb.(j) b;
            ub.(j) <- Float.min ub.(j) b)
      extra;
    relax ~max_iters:lp_iter_limit ~budget ?warm ~lb ~ub base_problem
  in
  (* Shared incumbent objective: read by the wave assembler for pruning,
     written only in the sequential post-pass, so every pool width observes
     the same sequence of values. *)
  let best_obj = Atomic.make infinity in
  let best_x = ref None in
  let certified = ref false in
  let floor_bound = Option.value lower_bound ~default:neg_infinity in
  let check_certificate () =
    match lower_bound with
    | Some lbv when (not !certified) && !best_x <> None
                    && Atomic.get best_obj <= lbv +. gap ->
        certified := true;
        Atomic.incr c_flow_certified
    | _ -> ()
  in
  (match incumbent with
  | Some x when check_feasible m x ->
      best_x := Some (Array.copy x);
      Atomic.set best_obj (eval_obj m x);
      check_certificate ()
  | _ -> ());
  let nodes = ref 0 in
  let queue =
    Syccl_util.Pqueue.create ~cmp:(fun a b ->
        let c = Float.compare a.lp_bound b.lp_bound in
        if c <> 0 then c else compare b.depth a.depth)
  in
  let fractional x =
    (* Most fractional integer variable, if any. *)
    let best = ref (-1) and bestfrac = ref int_tol in
    Array.iteri
      (fun j v ->
        if v.integer then begin
          let f = Float.abs (x.(j) -. Float.round x.(j)) in
          if f > !bestfrac then begin
            best := j;
            bestfrac := f
          end
        end)
      vs;
    if !best < 0 then None else Some !best
  in
  let hit_limit = ref false in
  (* Fold one solved node back into the search state (sequential). *)
  let integrate node result state =
    match (result : Lp.result) with
    | Lp.Infeasible -> ()
    | Lp.Iter_limit ->
        (* The relaxation was cut off, so this subtree may still hold the
           true optimum: the final status must degrade to Feasible/Limit
           rather than claiming Optimal. *)
        hit_limit := true
    | Lp.Unbounded ->
        (* An unbounded relaxation at the root means an unbounded MILP for
           our well-posed models; deeper nodes inherit the root status. *)
        ()
    | Lp.Optimal { x; obj = bound } ->
        if bound < Atomic.get best_obj -. 1e-9 then begin
          match fractional x with
          | None ->
              (* Integral: new incumbent. *)
              best_x := Some (Array.copy x);
              Atomic.set best_obj bound;
              check_certificate ()
          | Some j ->
              let warm = if state = None then node.warm else state in
              let lo = floor (x.(j) +. int_tol) in
              let child_bound = Float.max bound floor_bound in
              Syccl_util.Pqueue.push queue
                {
                  extra = (j, Lp.Le, lo) :: node.extra;
                  lp_bound = child_bound;
                  depth = node.depth + 1;
                  warm;
                };
              Syccl_util.Pqueue.push queue
                {
                  extra = (j, Lp.Ge, lo +. 1.0) :: node.extra;
                  lp_bound = child_bound;
                  depth = node.depth + 1;
                  warm;
                }
        end
  in
  let unbounded = ref false in
  let root_result, root_state = lp_solve [] None in
  (match root_result with
  | Lp.Infeasible -> ()
  | Lp.Iter_limit -> hit_limit := true
  | Lp.Unbounded -> unbounded := true
  | Lp.Optimal { x; obj = bound } -> (
      match fractional x with
      | None ->
          if bound < Atomic.get best_obj then begin
            best_x := Some (Array.copy x);
            Atomic.set best_obj bound;
            check_certificate ()
          end
      | Some _ ->
          Syccl_util.Pqueue.push queue
            {
              extra = [];
              lp_bound = Float.max bound floor_bound;
              depth = 0;
              warm = root_state;
            }));
  let solve_batch batch =
    let f nd = lp_solve nd.extra nd.warm in
    match pool with
    | Some p when Array.length batch > 1 ->
        Syccl_util.Trace.with_span ~cat:"milp" "milp.wave"
          ~args:[ ("nodes", string_of_int (Array.length batch)) ]
          (fun () -> Syccl_util.Pool.map p f batch)
    | _ -> Array.map f batch
  in
  let rec drain () =
    if Syccl_util.Budget.expired budget then hit_limit := true
    else if !certified then ()
    else begin
      (* Assemble a wave: pop up to [wave_width] nodes, dropping any whose
         bound the current incumbent already dominates. *)
      let batch = ref [] and nbatch = ref 0 and stop = ref false in
      while (not !stop) && !nbatch < wave_width do
        if !nodes >= node_limit then begin
          hit_limit := true;
          stop := true
        end
        else
          match Syccl_util.Pqueue.pop queue with
          | None -> stop := true
          | Some node ->
              incr nodes;
              if node.lp_bound >= Atomic.get best_obj -. 1e-9 then ()
              else begin
                batch := node :: !batch;
                incr nbatch
              end
      done;
      (* An empty batch means the queue drained or the node limit tripped:
         the assembly loop only stops early on those two conditions. *)
      match !batch with
      | [] -> ()
      | b ->
          let arr = Array.of_list (List.rev b) in
          let results = solve_batch arr in
          Array.iteri
            (fun i (res, state) ->
              (* Re-check the bound: an earlier node in this wave may have
                 produced a dominating incumbent. *)
              if arr.(i).lp_bound < Atomic.get best_obj -. 1e-9 then
                integrate arr.(i) res state)
            results;
          drain ()
    end
  in
  if not !unbounded then drain ();
  let x = match !best_x with Some x -> x | None -> Array.make m.nvars 0.0 in
  let status =
    if !unbounded then Unbounded
    else if !best_x = None then if !hit_limit then Limit else Infeasible
    else if !certified then Optimal
    else if !hit_limit then Feasible
    else Optimal
  in
  Atomic.incr c_solves;
  ignore (Atomic.fetch_and_add c_nodes !nodes);
  Syccl_util.Counters.record h_nodes (float_of_int !nodes);
  Syccl_util.Counters.record h_solve_s (Syccl_util.Clock.elapsed t_solve);
  {
    status;
    x;
    obj = Atomic.get best_obj;
    nodes = !nodes;
    certified = !certified;
  }
