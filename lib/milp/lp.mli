(** Revised simplex on sparse columns, with native variable bounds and
    warm-started dual re-solves, for linear programs in the form

    {v minimize c·x  subject to  a_i·x (≤ | ≥ | =) b_i,  lb ≤ x ≤ ub v}

    This is the LP engine underneath {!Milp}; it substitutes for the
    commercial solver the paper uses (see DESIGN.md).  The constraint
    matrix is held column-wise ({!Sparse}) and the basis inverse as a
    product-form eta file ({!Basis}): an iteration prices reduced costs in
    O(nnz), transforms one column, and appends one sparse eta — no dense
    tableau exists anywhere on this path.  Variable bounds participate in
    the ratio test directly (including bound-to-bound flips), so neither
    simple bounds nor branch-and-bound branching constraints cost extra
    rows.

    Warm starts: {!solve_bounded} accepts the {!basis_state} of a previous
    solve on a structurally identical problem (same variable and row
    counts).  If the saved basis is primal feasible under the new
    bounds/rhs it resumes phase 2 directly; if it is only dual feasible —
    the branch-and-bound child case, where one bound moved on a basic
    variable — a dual-simplex pass repairs primal feasibility in a few
    pivots.  Either way phase 1 is skipped; a basis that is neither
    primal- nor dual-feasible (or fails to refactorize) falls back to a
    cold start, so a stale warm state can cost time but never correctness.
    Counters: ["lp.warm_hits"], ["lp.warm_misses"], ["lp.phase1_skipped"],
    and the ["lp.pivots_per_solve"] histogram.

    Bland's rule (entered after a Dantzig prefix) guarantees termination;
    problems in this repository are small (hundreds to a few thousand
    variables). *)

type cmp = Le | Ge | Eq

type problem = {
  num_vars : int;
  objective : float array;  (** length [num_vars]; minimized *)
  rows : ((int * float) list * cmp * float) list;
      (** sparse constraint rows: (terms, comparison, rhs) *)
}

type result =
  | Optimal of { x : float array; obj : float }
  | Infeasible
  | Unbounded
  | Iter_limit

type basis_state
(** An immutable snapshot of a solve's final basis (row→column head plus
    per-column bound status).  Sharable across domains; children of a
    branch-and-bound node reuse their parent's snapshot without copying. *)

val solve : ?max_iters:int -> ?budget:Syccl_util.Budget.t -> problem -> result
(** Solve with the default bounds [0 ≤ x].  [max_iters] bounds total
    simplex pivots (default scales with problem size).  [budget] is
    checked every few dozen pivots; on expiry the solve returns
    [Iter_limit], so a deadline cannot be overshot by more than a handful
    of pivots. *)

type solver =
  ?max_iters:int ->
  ?budget:Syccl_util.Budget.t ->
  ?warm:basis_state ->
  lb:float array ->
  ub:float array ->
  problem ->
  result * basis_state option
(** The shape of {!solve_bounded}, the LP that {!Milp.solve} runs on each
    node's relaxation. *)

val solve_bounded : solver
(** Solve with explicit per-variable bounds ([lb.(j) ≤ x.(j) ≤ ub.(j)],
    entries may be [-infinity]/[infinity]; lb must be finite or the
    matching ub finite; [lb.(j) > ub.(j)] is [Infeasible]).  Returns the
    result together with the final basis for warm-starting related solves
    ([None] when the solve ended before a usable basis existed, e.g. on
    [Iter_limit]). *)
