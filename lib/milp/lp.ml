type cmp = Le | Ge | Eq

type problem = {
  num_vars : int;
  objective : float array;
  rows : ((int * float) list * cmp * float) list;
}

type result =
  | Optimal of { x : float array; obj : float }
  | Infeasible
  | Unbounded
  | Iter_limit

type basis_state = { b_head : int array; b_status : int array }

let eps = 1e-9
let feas_tol = 1e-7

(* Per-column status in the bounded formulation. *)
let at_lo = 0
let at_hi = 1
let basic = 2

(* Raised on a singular refactorization or a vanished pivot; the solve
   restarts cold (all-slack basis), so numerical trouble costs time, not
   correctness. *)
exception Numerical

let budget_stride = 64

let h_pivots = Syccl_util.Counters.histogram "lp.pivots_per_solve"
let c_warm_hits = Syccl_util.Counters.int_counter "lp.warm_hits"
let c_warm_misses = Syccl_util.Counters.int_counter "lp.warm_misses"
let c_phase1_skipped = Syccl_util.Counters.int_counter "lp.phase1_skipped"

(* Column layout: [0, n) structural, [n, n+m) one slack per row (bounds by
   comparison sense), [n+m, n+2m) one artificial per row, pinned to [0,0]
   except while hosting a violated row during a cold phase 1.  The matrix
   therefore has the same shape for every solve of a structurally identical
   problem, which is what makes basis states transferable. *)
type core = {
  mat : Sparse.t;
  m : int;
  n : int;
  ncols : int;
  lo : float array;
  hi : float array;
  obj2 : float array;  (* phase-2 costs over all columns *)
  status : int array;
  basis : Basis.t;
  xb : float array;  (* value of the basic variable of each row *)
  b : float array;
  y : float array;  (* work: duals / inverse row *)
  w : float array;  (* work: transformed column *)
  rho : float array;  (* work: dual-simplex inverse row *)
  pivots : int ref;
  max_iters : int;
  budget : Syccl_util.Budget.t;
}

let nb_value c j =
  if c.status.(j) = at_hi then c.hi.(j) else c.lo.(j)

let compute_xb c =
  Array.blit c.b 0 c.xb 0 c.m;
  for j = 0 to c.ncols - 1 do
    if c.status.(j) <> basic then begin
      let v = nb_value c j in
      if v <> 0.0 && Float.is_finite v then
        Sparse.col_iter c.mat j (fun i a -> c.xb.(i) <- c.xb.(i) -. (a *. v))
    end
  done;
  Basis.ftran c.basis c.xb

let refactor_if_due c =
  if Basis.refactor_due c.basis then begin
    if not (Basis.reinvert c.basis) then raise Numerical;
    compute_xb c
  end

let scatter_ftran c j =
  Array.fill c.w 0 c.m 0.0;
  Sparse.col_iter c.mat j (fun i a -> c.w.(i) <- a);
  Basis.ftran c.basis c.w

(* One primal phase under the cost vector [cost].  Dantzig pricing, with a
   switch to Bland's rule once [degen_switch] consecutive degenerate pivots
   accumulate (epoch models are massively degenerate, and Dantzig with a
   fixed tie-break can cycle long before any absolute iteration cap is
   reached); a nondegenerate step drops back to Dantzig, so Bland's
   slowness is paid only while it is breaking a stall.  The bounded ratio
   test considers both bounds of every basic variable plus the entering
   variable's own opposite bound (a "bound flip", which moves no basis
   column at all).  Ratio ties break on the smallest basic column, as in
   the retired dense solver. *)
let degen_switch = 64

let primal c ~cost =
  let head = Basis.head c.basis in
  let streak = ref 0 in
  let rec loop iter =
    if
      iter land (budget_stride - 1) = budget_stride - 1
      && Syccl_util.Budget.expired c.budget
    then `Iter_limit
    else begin
      for i = 0 to c.m - 1 do
        c.y.(i) <- cost.(head.(i))
      done;
      Basis.btran c.basis c.y;
      let entering = ref (-1) and e_dir = ref 1.0 in
      if !streak < degen_switch then begin
        let bestv = ref eps in
        for j = 0 to c.ncols - 1 do
          if c.status.(j) <> basic && c.lo.(j) < c.hi.(j) then begin
            let z = cost.(j) -. Sparse.col_dot c.mat j c.y in
            if c.status.(j) = at_lo then begin
              if -.z > !bestv then begin
                entering := j;
                e_dir := 1.0;
                bestv := -.z
              end
            end
            else if z > !bestv then begin
              entering := j;
              e_dir := -1.0;
              bestv := z
            end
          end
        done
      end
      else begin
        try
          for j = 0 to c.ncols - 1 do
            if c.status.(j) <> basic && c.lo.(j) < c.hi.(j) then begin
              let z = cost.(j) -. Sparse.col_dot c.mat j c.y in
              if c.status.(j) = at_lo && z < -.eps then begin
                entering := j;
                e_dir := 1.0;
                raise Exit
              end;
              if c.status.(j) = at_hi && z > eps then begin
                entering := j;
                e_dir := -1.0;
                raise Exit
              end
            end
          done
        with Exit -> ()
      end;
      if !entering < 0 then `Optimal
      else if !(c.pivots) >= c.max_iters then `Iter_limit
      else begin
        let j = !entering and dir = !e_dir in
        scatter_ftran c j;
        (* Bounded ratio test.  [theta] starts at the entering variable's
           own range (the bound-flip cap); a basic variable that hits a
           bound sooner takes over. *)
        let theta = ref (c.hi.(j) -. c.lo.(j)) in
        let leave = ref (-1) and leave_to_lo = ref true in
        let consider i t to_lo =
          let t = if t < 0.0 then 0.0 else t in
          if
            t < !theta -. eps
            || (t < !theta +. eps
               && !leave >= 0
               && head.(i) < head.(!leave))
            || (t < !theta +. eps && !leave < 0 && t <= !theta)
          then begin
            theta := t;
            leave := i;
            leave_to_lo := to_lo
          end
        in
        for i = 0 to c.m - 1 do
          let d = dir *. c.w.(i) in
          if d > eps then begin
            let l = c.lo.(head.(i)) in
            if l > neg_infinity then consider i ((c.xb.(i) -. l) /. d) true
          end
          else if d < -.eps then begin
            let u = c.hi.(head.(i)) in
            if u < infinity then consider i ((u -. c.xb.(i)) /. -.d) false
          end
        done;
        if !theta = infinity then `Unbounded
        else begin
          let t = !theta in
          if t > eps then streak := 0 else incr streak;
          if !leave < 0 then begin
            (* Bound flip: the entering variable crosses to its other bound
               before any basic variable blocks. *)
            if t > 0.0 then
              for i = 0 to c.m - 1 do
                c.xb.(i) <- c.xb.(i) -. (dir *. t *. c.w.(i))
              done;
            c.status.(j) <- (if c.status.(j) = at_lo then at_hi else at_lo);
            incr c.pivots;
            loop (iter + 1)
          end
          else begin
            let r = !leave in
            if Float.abs c.w.(r) < eps then raise Numerical;
            let vj = nb_value c j +. (dir *. t) in
            if t > 0.0 then
              for i = 0 to c.m - 1 do
                c.xb.(i) <- c.xb.(i) -. (dir *. t *. c.w.(i))
              done;
            c.status.(head.(r)) <- (if !leave_to_lo then at_lo else at_hi);
            c.status.(j) <- basic;
            c.xb.(r) <- vj;
            Basis.update c.basis ~row:r ~col:j ~w:c.w;
            incr c.pivots;
            refactor_if_due c;
            loop (iter + 1)
          end
        end
      end
    end
  in
  loop 0

(* Dual simplex: repair primal feasibility while keeping reduced costs
   signed correctly.  Used on warm starts whose basis is dual feasible but
   primal infeasible — the branch-and-bound child case (one bound moved on
   a basic variable) and the sibling case (same matrix, new rhs). *)
let dual c ~cost =
  let head = Basis.head c.basis in
  let streak = ref 0 in
  let rec loop iter =
    if
      iter land (budget_stride - 1) = budget_stride - 1
      && Syccl_util.Budget.expired c.budget
    then `Iter_limit
    else begin
      (* Leaving row: largest bound violation among basic variables — or,
         after [degen_switch] consecutive zero-progress steps, the violated
         row with the smallest basic column (Bland-like, to break dual
         cycling on degenerate bases). *)
      let bland = !streak >= degen_switch in
      let r = ref (-1) and viol = ref feas_tol and above = ref false in
      for i = 0 to c.m - 1 do
        let l = c.lo.(head.(i)) and u = c.hi.(head.(i)) in
        let better v =
          if bland then
            v > feas_tol && (!r < 0 || head.(i) < head.(!r))
          else v > !viol
        in
        if better (l -. c.xb.(i)) then begin
          r := i;
          viol := l -. c.xb.(i);
          above := false
        end;
        if better (c.xb.(i) -. u) then begin
          r := i;
          viol := c.xb.(i) -. u;
          above := true
        end
      done;
      if !r < 0 then `Feasible
      else if !(c.pivots) >= c.max_iters then `Iter_limit
      else begin
        let r = !r in
        for i = 0 to c.m - 1 do
          c.y.(i) <- cost.(head.(i))
        done;
        Basis.btran c.basis c.y;
        Array.fill c.rho 0 c.m 0.0;
        c.rho.(r) <- 1.0;
        Basis.btran c.basis c.rho;
        let delta =
          if !above then c.xb.(r) -. c.hi.(head.(r))
          else c.xb.(r) -. c.lo.(head.(r))
        in
        (* Dual ratio test over eligible nonbasic columns: moving the
           entering variable by θ ≥ 0 changes xb.(r) by −(dir·α)·θ, which
           must cancel [delta]; minimizing |z|/|α| keeps every other
           reduced cost correctly signed.  Ties break on smallest index. *)
        let enter = ref (-1) and best = ref infinity and e_a = ref 0.0 in
        for j = 0 to c.ncols - 1 do
          if c.status.(j) <> basic && c.lo.(j) < c.hi.(j) then begin
            let alpha = Sparse.col_dot c.mat j c.rho in
            let d = if c.status.(j) = at_lo then 1.0 else -1.0 in
            let a = d *. alpha in
            if (delta > 0.0 && a > eps) || (delta < 0.0 && a < -.eps) then begin
              let z = cost.(j) -. Sparse.col_dot c.mat j c.y in
              let ratio = Float.abs z /. Float.abs alpha in
              if
                ratio < !best -. eps
                || (ratio < !best +. eps && (!enter < 0 || j < !enter))
              then begin
                best := ratio;
                enter := j;
                e_a := a
              end
            end
          end
        done;
        if !enter < 0 then `Infeasible
        else begin
          (* The dual objective moves by [best]·|delta| per step; a ~zero
             ratio is a degenerate step for the stall detector. *)
          if !best > eps then streak := 0 else incr streak;
          let j = !enter in
          let d = if c.status.(j) = at_lo then 1.0 else -1.0 in
          let theta = delta /. !e_a in
          let range = c.hi.(j) -. c.lo.(j) in
          scatter_ftran c j;
          if theta > range +. eps then begin
            (* The entering variable hits its other bound first: flip it,
               then re-examine the still-infeasible row. *)
            for i = 0 to c.m - 1 do
              c.xb.(i) <- c.xb.(i) -. (d *. range *. c.w.(i))
            done;
            c.status.(j) <- (if c.status.(j) = at_lo then at_hi else at_lo);
            incr c.pivots;
            loop (iter + 1)
          end
          else begin
            if Float.abs c.w.(r) < eps then raise Numerical;
            let vj = nb_value c j +. (d *. theta) in
            for i = 0 to c.m - 1 do
              c.xb.(i) <- c.xb.(i) -. (d *. theta *. c.w.(i))
            done;
            c.status.(head.(r)) <- (if !above then at_hi else at_lo);
            c.status.(j) <- basic;
            c.xb.(r) <- vj;
            Basis.update c.basis ~row:r ~col:j ~w:c.w;
            incr c.pivots;
            refactor_if_due c;
            loop (iter + 1)
          end
        end
      end
    end
  in
  loop 0

let primal_feasible c =
  let head = Basis.head c.basis in
  let ok = ref true in
  for i = 0 to c.m - 1 do
    let l = c.lo.(head.(i)) and u = c.hi.(head.(i)) in
    if c.xb.(i) < l -. feas_tol || c.xb.(i) > u +. feas_tol then ok := false
  done;
  !ok

let dual_feasible c ~cost =
  let head = Basis.head c.basis in
  for i = 0 to c.m - 1 do
    c.y.(i) <- cost.(head.(i))
  done;
  Basis.btran c.basis c.y;
  try
    for j = 0 to c.ncols - 1 do
      if c.status.(j) <> basic && c.lo.(j) < c.hi.(j) then begin
        let z = cost.(j) -. Sparse.col_dot c.mat j c.y in
        if c.status.(j) = at_lo && z < -.feas_tol then raise Exit;
        if c.status.(j) = at_hi && z > feas_tol then raise Exit
      end
    done;
    true
  with Exit -> false

let snapshot c =
  {
    b_head = Array.copy (Basis.head c.basis);
    b_status = Array.copy c.status;
  }

let extract c =
  let head = Basis.head c.basis in
  let x = Array.make c.n 0.0 in
  for j = 0 to c.n - 1 do
    if c.status.(j) <> basic then x.(j) <- nb_value c j
  done;
  for i = 0 to c.m - 1 do
    if head.(i) < c.n then x.(head.(i)) <- c.xb.(i)
  done;
  let obj = ref 0.0 in
  for j = 0 to c.n - 1 do
    obj := !obj +. (c.obj2.(j) *. x.(j))
  done;
  Optimal { x; obj = !obj }

let phase2 c =
  match primal c ~cost:c.obj2 with
  | `Iter_limit -> (Iter_limit, None)
  | `Unbounded -> (Unbounded, None)
  | `Optimal -> (extract c, Some (snapshot c))

(* Shared per-solve construction: the CSC matrix and pristine bound/cost
   arrays.  [lo]/[hi] are copied per attempt because phase 1 opens and
   re-pins artificial bounds. *)
let build ~lb ~ub { num_vars = n; objective; rows } =
  let rows = Array.of_list rows in
  let m = Array.length rows in
  let ncols = n + m + m in
  let cols = Array.make ncols [] in
  Array.iteri
    (fun i (terms, _, _) ->
      List.iter
        (fun (j, v) ->
          if j < 0 || j >= n then invalid_arg "Lp: variable index out of range";
          cols.(j) <- (i, v) :: cols.(j))
        terms)
    rows;
  for i = 0 to m - 1 do
    cols.(n + i) <- [ (i, 1.0) ];
    cols.(n + m + i) <- [ (i, 1.0) ]
  done;
  let mat = Sparse.of_cols ~m cols in
  let b = Array.map (fun (_, _, rhs) -> rhs) rows in
  let lo = Array.make ncols 0.0 and hi = Array.make ncols 0.0 in
  for j = 0 to n - 1 do
    if lb.(j) = neg_infinity && ub.(j) = infinity then
      invalid_arg "Lp.solve_bounded: free variables unsupported";
    lo.(j) <- lb.(j);
    hi.(j) <- ub.(j)
  done;
  Array.iteri
    (fun i (_, cmp, _) ->
      match cmp with
      | Le -> hi.(n + i) <- infinity
      | Ge ->
          lo.(n + i) <- neg_infinity;
          hi.(n + i) <- 0.0
      | Eq -> ())
    rows;
  let obj2 = Array.make ncols 0.0 in
  Array.blit objective 0 obj2 0 n;
  (mat, b, lo, hi, obj2, m, ncols)

let make_core ~(mat : Sparse.t) ~b ~lo ~hi ~obj2 ~m ~n ~ncols ~status ~head
    ~pivots ~max_iters ~budget =
  match Basis.create mat ~head with
  | None -> raise Numerical
  | Some basis ->
      let c =
        {
          mat;
          m;
          n;
          ncols;
          lo;
          hi;
          obj2;
          status;
          basis;
          xb = Array.make m 0.0;
          b;
          y = Array.make m 0.0;
          w = Array.make m 0.0;
          rho = Array.make m 0.0;
          pivots;
          max_iters;
          budget;
        }
      in
      compute_xb c;
      c

(* Cold start: structural variables at a finite bound, slacks basic where
   the resulting residual fits their bounds, an opened artificial basic
   elsewhere.  Phase 1 (minimize Σ|artificial|) runs only if some row
   needed an artificial; otherwise the all-slack basis is already primal
   feasible and phase 1 is skipped outright. *)
let run_cold ~mat ~b ~lo ~hi ~obj2 ~m ~n ~ncols ~pivots ~max_iters ~budget =
  let status = Array.make ncols at_lo in
  for j = 0 to ncols - 1 do
    status.(j) <- (if lo.(j) > neg_infinity then at_lo else at_hi)
  done;
  let resid = Array.copy b in
  for j = 0 to n - 1 do
    let v = if status.(j) = at_hi then hi.(j) else lo.(j) in
    if v <> 0.0 then
      Sparse.col_iter mat j (fun i a -> resid.(i) <- resid.(i) -. (a *. v))
  done;
  let head = Array.make m 0 in
  let cost1 = Array.make ncols 0.0 in
  let any_art = ref false in
  for i = 0 to m - 1 do
    let r = resid.(i) in
    let s = n + i in
    if r >= lo.(s) -. feas_tol && r <= hi.(s) +. feas_tol then begin
      head.(i) <- s;
      status.(s) <- basic
    end
    else begin
      let a = n + m + i in
      head.(i) <- a;
      status.(a) <- basic;
      any_art := true;
      if r >= 0.0 then begin
        hi.(a) <- infinity;
        cost1.(a) <- 1.0
      end
      else begin
        lo.(a) <- neg_infinity;
        hi.(a) <- 0.0;
        cost1.(a) <- -1.0
      end
    end
  done;
  let c =
    make_core ~mat ~b ~lo ~hi ~obj2 ~m ~n ~ncols ~status ~head ~pivots
      ~max_iters ~budget
  in
  if not !any_art then begin
    Atomic.incr c_phase1_skipped;
    phase2 c
  end
  else begin
    match primal c ~cost:cost1 with
    | `Iter_limit -> (Iter_limit, None)
    | `Unbounded ->
        (* Phase 1 is bounded below by 0; treat as numerical noise. *)
        (Infeasible, None)
    | `Optimal ->
        let head_arr = Basis.head c.basis in
        let row_of = Array.make ncols (-1) in
        Array.iteri (fun i col -> row_of.(col) <- i) head_arr;
        let val1 = ref 0.0 in
        for j = 0 to ncols - 1 do
          if cost1.(j) <> 0.0 then begin
            let v =
              if c.status.(j) = basic then c.xb.(row_of.(j)) else nb_value c j
            in
            val1 := !val1 +. (cost1.(j) *. v)
          end
        done;
        if !val1 > 1e-6 then (Infeasible, None)
        else begin
          (* Re-pin every artificial to [0,0] for phase 2; still-basic ones
             sit (degenerately) at ~0. *)
          for i = 0 to m - 1 do
            let a = n + m + i in
            lo.(a) <- 0.0;
            hi.(a) <- 0.0
          done;
          phase2 c
        end
  end

let run_warm ~mat ~b ~lo ~hi ~obj2 ~m ~n ~ncols ~pivots ~max_iters ~budget
    state =
  if
    Array.length state.b_head <> m
    || Array.length state.b_status <> ncols
    || Array.exists (fun col -> col < 0 || col >= ncols) state.b_head
  then raise Numerical;
  let status = Array.copy state.b_status in
  let in_head = Array.make ncols false in
  Array.iter (fun col -> in_head.(col) <- true) state.b_head;
  for j = 0 to ncols - 1 do
    if in_head.(j) then status.(j) <- basic
    else begin
      if status.(j) = basic then
        status.(j) <- (if lo.(j) > neg_infinity then at_lo else at_hi);
      (* A stored status can point at an infinite bound after a bound
         change; snap to the finite side. *)
      if status.(j) = at_lo && lo.(j) = neg_infinity then status.(j) <- at_hi;
      if status.(j) = at_hi && hi.(j) = infinity then status.(j) <- at_lo
    end
  done;
  let c =
    make_core ~mat ~b ~lo ~hi ~obj2 ~m ~n ~ncols ~status
      ~head:(Array.copy state.b_head) ~pivots ~max_iters ~budget
  in
  if primal_feasible c then begin
    Atomic.incr c_warm_hits;
    Atomic.incr c_phase1_skipped;
    match phase2 c with
    | (Optimal _, _) as res when primal_feasible c -> res
    | (Optimal _, _) -> raise Numerical
    | res -> res
  end
  else if dual_feasible c ~cost:obj2 then begin
    Atomic.incr c_warm_hits;
    Atomic.incr c_phase1_skipped;
    match dual c ~cost:obj2 with
    | `Iter_limit -> (Iter_limit, None)
    | `Infeasible -> (Infeasible, Some (snapshot c))
    | `Feasible -> (
        (* Usually zero further pivots; the primal pass re-verifies
           optimality under accumulated roundoff. *)
        match phase2 c with
        | (Optimal _, _) as res when primal_feasible c -> res
        | (Optimal _, _) -> raise Numerical
        | res -> res)
  end
  else raise Numerical

type solver =
  ?max_iters:int ->
  ?budget:Syccl_util.Budget.t ->
  ?warm:basis_state ->
  lb:float array ->
  ub:float array ->
  problem ->
  result * basis_state option

let solve_bounded ?max_iters ?(budget = Syccl_util.Budget.unlimited) ?warm ~lb
    ~ub p =
  let n = p.num_vars in
  if Array.length p.objective <> n then
    invalid_arg "Lp.solve_bounded: objective length mismatch";
  if Array.length lb <> n || Array.length ub <> n then
    invalid_arg "Lp.solve_bounded: bounds length mismatch";
  (* Crossed bounds leave no feasible point; the simplex itself never
     compares a variable's two bounds and would return one of them.
     Branch-and-bound makes them when a branching bound passes the
     variable's own (x >= 2 on an integer x <= 1.5). *)
  if Array.exists2 (fun l u -> l > u) lb ub then (Infeasible, None)
  else
  let mat, b, lo0, hi0, obj2, m, ncols = build ~lb ~ub p in
  let max_iters =
    match max_iters with Some v -> v | None -> max 2000 (60 * (m + ncols))
  in
  let pivots = ref 0 in
  let cold () =
    try
      run_cold ~mat ~b ~lo:(Array.copy lo0) ~hi:(Array.copy hi0) ~obj2 ~m ~n
        ~ncols ~pivots ~max_iters ~budget
    with Numerical -> (Iter_limit, None)
  in
  let result, state =
    match warm with
    | None -> cold ()
    | Some st -> (
        (* Cap the warm attempt well below the full iteration budget: a
           stored basis one bound-change away normally re-optimizes in a
           handful of dual pivots, so a warm re-solve still running after
           [warm_cap] pivots has stalled on degeneracy — abandoning it for
           a cold solve is cheaper than letting it burn the whole limit. *)
        let warm_cap = min max_iters (500 + m) in
        try
          match
            run_warm ~mat ~b ~lo:(Array.copy lo0) ~hi:(Array.copy hi0) ~obj2
              ~m ~n ~ncols ~pivots ~max_iters:warm_cap ~budget st
          with
          | (Iter_limit, _)
            when warm_cap < max_iters
                 && not (Syccl_util.Budget.expired budget) ->
              (* The stalled attempt already counted itself a hit; reclass
                 it as a miss so the warm-hit rate reflects solves the warm
                 basis actually carried. *)
              Atomic.decr c_warm_hits;
              Atomic.incr c_warm_misses;
              cold ()
          | res -> res
        with Numerical ->
          Atomic.incr c_warm_misses;
          cold ())
  in
  Syccl_util.Counters.record h_pivots (float_of_int !pivots);
  (result, state)

let solve ?max_iters ?budget p =
  let lb = Array.make p.num_vars 0.0 in
  let ub = Array.make p.num_vars infinity in
  fst (solve_bounded ?max_iters ?budget ~lb ~ub p)
