(* The pre-rewrite dense two-phase primal simplex, preserved as the
   differential oracle for the revised solver (see lp_dense.mli).  The code
   is intentionally untouched apart from operating on Lp's problem/result
   types, reporting into its own histogram and rejecting malformed problems
   with [Invalid_argument]. *)

module Lp = Syccl_milp.Lp

let eps = 1e-9

(* Tableau state: [tab] has [m] constraint rows and one reduced-cost row at
   index [m]; the last column is the right-hand side.  [basis.(i)] is the
   column basic in row [i].  [usable.(j)] is false for retired artificial
   columns and [active_row] masks redundant rows found after phase 1. *)
type tableau = {
  m : int;
  cols : int;  (* total columns excluding rhs *)
  tab : float array array;
  basis : int array;
  usable : bool array;
  active_row : bool array;
}

let pivot t r c =
  let row_r = t.tab.(r) in
  let p = row_r.(c) in
  let w = t.cols in
  for j = 0 to w do
    row_r.(j) <- row_r.(j) /. p
  done;
  for i = 0 to t.m do
    if i <> r then begin
      let f = t.tab.(i).(c) in
      if Float.abs f > 0.0 then begin
        let row_i = t.tab.(i) in
        for j = 0 to w do
          row_i.(j) <- row_i.(j) -. (f *. row_r.(j))
        done;
        row_i.(c) <- 0.0
      end
    end
  done;
  t.basis.(r) <- c

(* One simplex phase on the current reduced-cost row.  Dantzig pricing with a
   switch to Bland's rule after [bland_after] pivots to guarantee finiteness.
   Returns [`Optimal], [`Unbounded] or [`Iter_limit]. *)
let budget_stride = 64

let run_phase t ~budget ~max_iters =
  let bland_after = max 200 (2 * (t.m + t.cols)) in
  let obj = t.tab.(t.m) in
  let rec loop iter =
    if iter > max_iters then `Iter_limit
    else if
      iter land (budget_stride - 1) = budget_stride - 1
      && Syccl_util.Budget.expired budget
    then `Iter_limit
    else begin
      let entering =
        if iter < bland_after then begin
          (* Dantzig: most negative reduced cost. *)
          let best = ref (-1) and bestv = ref (-.eps) in
          for j = 0 to t.cols - 1 do
            if t.usable.(j) && obj.(j) < !bestv then begin
              best := j;
              bestv := obj.(j)
            end
          done;
          !best
        end
        else begin
          (* Bland: smallest index with negative reduced cost. *)
          let found = ref (-1) in
          (try
             for j = 0 to t.cols - 1 do
               if t.usable.(j) && obj.(j) < -.eps then begin
                 found := j;
                 raise Exit
               end
             done
           with Exit -> ());
          !found
        end
      in
      if entering < 0 then `Optimal
      else begin
        (* Ratio test; break ties on smallest basis column (Bland). *)
        let leave = ref (-1) and best_ratio = ref infinity in
        for i = 0 to t.m - 1 do
          if t.active_row.(i) then begin
            let a = t.tab.(i).(entering) in
            if a > eps then begin
              let ratio = t.tab.(i).(t.cols) /. a in
              if
                ratio < !best_ratio -. eps
                || (ratio < !best_ratio +. eps
                   && (!leave < 0 || t.basis.(i) < t.basis.(!leave)))
              then begin
                best_ratio := ratio;
                leave := i
              end
            end
          end
        done;
        if !leave < 0 then `Unbounded
        else begin
          pivot t !leave entering;
          loop (iter + 1)
        end
      end
    end
  in
  loop 0

let solve ?max_iters ?(budget = Syccl_util.Budget.unlimited)
    { Lp.num_vars; objective; rows } =
  if Array.length objective <> num_vars then
    invalid_arg "Lp_dense.solve: objective length mismatch";
  let rows = Array.of_list rows in
  let m = Array.length rows in
  (* Normalize to b >= 0. *)
  let rows =
    Array.map
      (fun (terms, cmp, b) ->
        if b < 0.0 then
          let terms = List.map (fun (j, v) -> (j, -.v)) terms in
          let cmp =
            match cmp with Lp.Le -> Lp.Ge | Lp.Ge -> Lp.Le | Lp.Eq -> Lp.Eq
          in
          (terms, cmp, -.b)
        else (terms, cmp, b))
      rows
  in
  let n_slack = ref 0 and n_art = ref 0 in
  Array.iter
    (fun (_, cmp, _) ->
      match cmp with
      | Lp.Le -> incr n_slack
      | Lp.Ge ->
          incr n_slack;
          incr n_art
      | Lp.Eq -> incr n_art)
    rows;
  let cols = num_vars + !n_slack + !n_art in
  let tab = Array.init (m + 1) (fun _ -> Array.make (cols + 1) 0.0) in
  let basis = Array.make (max 1 m) 0 in
  let usable = Array.make cols true in
  let active_row = Array.make (max 1 m) true in
  let art_cols = ref [] in
  let next_slack = ref num_vars in
  let next_art = ref (num_vars + !n_slack) in
  Array.iteri
    (fun i (terms, cmp, b) ->
      List.iter
        (fun (j, v) ->
          if j < 0 || j >= num_vars then
            invalid_arg "Lp_dense.solve: variable index out of range";
          tab.(i).(j) <- tab.(i).(j) +. v)
        terms;
      tab.(i).(cols) <- b;
      (match cmp with
      | Lp.Le ->
          tab.(i).(!next_slack) <- 1.0;
          basis.(i) <- !next_slack;
          incr next_slack
      | Lp.Ge ->
          tab.(i).(!next_slack) <- -1.0;
          incr next_slack;
          tab.(i).(!next_art) <- 1.0;
          basis.(i) <- !next_art;
          art_cols := !next_art :: !art_cols;
          incr next_art
      | Lp.Eq ->
          tab.(i).(!next_art) <- 1.0;
          basis.(i) <- !next_art;
          art_cols := !next_art :: !art_cols;
          incr next_art);
      ())
    rows;
  let t = { m; cols; tab; basis; usable; active_row } in
  let max_iters =
    match max_iters with Some v -> v | None -> max 2000 (60 * (m + cols))
  in
  let is_art = Array.make cols false in
  List.iter (fun c -> is_art.(c) <- true) !art_cols;
  (* Phase 1: minimize the sum of artificials.  The reduced-cost row is
     c1 - Σ (rows with artificial basis), since artificials are basic. *)
  let phase1_needed = !art_cols <> [] in
  let status1 =
    if not phase1_needed then `Optimal
    else begin
      let obj = t.tab.(m) in
      Array.fill obj 0 (cols + 1) 0.0;
      List.iter (fun c -> obj.(c) <- 1.0) !art_cols;
      for i = 0 to m - 1 do
        if is_art.(basis.(i)) then
          for j = 0 to cols do
            obj.(j) <- obj.(j) -. t.tab.(i).(j)
          done
      done;
      run_phase t ~budget ~max_iters
    end
  in
  match status1 with
  | `Iter_limit -> Lp.Iter_limit
  | `Unbounded -> Lp.Infeasible (* phase 1 is bounded below by 0 *)
  | `Optimal ->
      let phase1_obj = -.t.tab.(m).(cols) in
      if phase1_needed && phase1_obj > 1e-6 then Lp.Infeasible
      else begin
        (* Drive remaining basic artificials out or deactivate their rows. *)
        for i = 0 to m - 1 do
          if is_art.(basis.(i)) then begin
            let piv = ref (-1) in
            (try
               for j = 0 to cols - 1 do
                 if (not is_art.(j)) && Float.abs t.tab.(i).(j) > 1e-7
                 then begin
                   piv := j;
                   raise Exit
                 end
               done
             with Exit -> ());
            if !piv >= 0 then pivot t i !piv else active_row.(i) <- false
          end
        done;
        List.iter (fun c -> usable.(c) <- false) !art_cols;
        (* Phase 2: rebuild the reduced-cost row from the true objective. *)
        let obj = t.tab.(m) in
        Array.fill obj 0 (cols + 1) 0.0;
        Array.blit objective 0 obj 0 num_vars;
        for i = 0 to m - 1 do
          if active_row.(i) && basis.(i) < num_vars then begin
            let c = objective.(basis.(i)) in
            if c <> 0.0 then
              for j = 0 to cols do
                obj.(j) <- obj.(j) -. (c *. t.tab.(i).(j))
              done
          end
        done;
        match run_phase t ~budget ~max_iters with
        | `Iter_limit -> Lp.Iter_limit
        | `Unbounded -> Lp.Unbounded
        | `Optimal ->
            let x = Array.make num_vars 0.0 in
            for i = 0 to m - 1 do
              if active_row.(i) && basis.(i) < num_vars then
                x.(basis.(i)) <- t.tab.(i).(cols)
            done;
            let objv = ref 0.0 in
            Array.iteri (fun j c -> objv := !objv +. (c *. x.(j))) objective;
            Lp.Optimal { x; obj = !objv }
      end

let relax ?max_iters ?budget ?warm:_ ~lb ~ub (p : Lp.problem) =
  let bound_rows =
    List.concat
      (List.init p.num_vars (fun j ->
           if lb.(j) < 0.0 then
             invalid_arg "Lp_dense.relax: negative lower bound unsupported";
           (if lb.(j) > 0.0 then [ ([ (j, 1.0) ], Lp.Ge, lb.(j)) ] else [])
           @ if ub.(j) < infinity then [ ([ (j, 1.0) ], Lp.Le, ub.(j)) ] else []))
  in
  (solve ?max_iters ?budget { p with rows = p.rows @ bound_rows }, None)
