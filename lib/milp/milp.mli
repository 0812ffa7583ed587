(** Mixed-integer linear programming: a small modelling DSL plus a best-first
    branch-and-bound over the {!Lp} revised simplex.

    This module substitutes for the commercial MILP solver used in the paper;
    it targets the small sub-demand models produced by SyCCL's decomposition
    (§5.1) and the TECCL baseline's whole-problem models (Appendix A).

    Variable bounds — including the bounds added by branching — are passed
    to {!Lp.solve_bounded} natively rather than as extra constraint rows,
    and every branch-and-bound child warm-starts from its parent's final
    basis (one bound changed, so a dual-simplex pass repairs feasibility in
    a few pivots).  Node exploration proceeds in fixed-size waves whose LP
    relaxations are solved in parallel over a {!Syccl_util.Pool} when one
    is supplied; waves are assembled and post-processed sequentially from
    the deterministic best-first queue, so the explored tree — and hence
    the result — is identical at every pool width. *)

type model

val create : unit -> model

val add_var :
  model -> ?lb:float -> ?ub:float -> ?integer:bool -> ?obj:float -> string -> int
(** Register a variable, returning its index.  [lb] defaults to 0 (and must
    be ≥ 0), [ub] to +∞, [obj] to 0.  [integer] marks the variable for
    branching. *)

val binary : model -> ?obj:float -> string -> int
(** Shorthand for an integer variable in [\[0, 1\]]. *)

val num_vars : model -> int

val add_le : model -> (int * float) list -> float -> unit
val add_ge : model -> (int * float) list -> float -> unit
val add_eq : model -> (int * float) list -> float -> unit
(** Add a constraint row [Σ coef·var (≤|≥|=) rhs]. *)

type status = Optimal | Feasible | Infeasible | Unbounded | Limit

type result = {
  status : status;
  x : float array;  (** best solution found (meaningless unless feasible) *)
  obj : float;
  nodes : int;  (** branch-and-bound nodes explored *)
  certified : bool;
      (** the incumbent met the [lower_bound + gap] early-exit certificate *)
}

val solve :
  ?node_limit:int ->
  ?budget:Syccl_util.Budget.t ->
  ?incumbent:float array ->
  ?pool:Syccl_util.Pool.t ->
  ?lower_bound:float ->
  ?gap:float ->
  ?relax:Lp.solver ->
  model ->
  result
(** Minimize.  [incumbent] seeds the search with a known feasible point
    (checked; ignored if it violates constraints).  [Feasible] means the
    node or time budget expired with an incumbent in hand whose optimality
    was not proven; [Limit] means the budget expired with no solution.
    Each relaxation may take at most 4000 simplex pivots, so a single LP
    cannot blow the time budget between checks.  [budget] is the only
    wall-clock input: a caller that wants a per-model limit narrows its
    own budget with {!Syccl_util.Budget.sub} before the call.  Its
    deadline is checked both between branch-and-bound waves and — via
    {!Lp}'s pivot loop — between simplex pivots, so an expiring budget
    stops the solve within a pivot-check stride.

    [lower_bound] is an external certificate on the optimal objective
    (e.g. the multi-commodity-flow relaxation of the epoch model): node
    bounds are clamped up to it, and as soon as the incumbent objective is
    within [gap] (default 1e-6) of it the search stops with
    [certified = true] and status [Optimal] — the incumbent is within
    [gap] of the relaxation optimum, so proving exact optimality is not
    worth further nodes.  The ["milp.flow_certified"] counter records each
    early exit.

    [relax] solves each node's relaxation (default {!Lp.solve_bounded}):
    it gets the node's variable bounds and its parent's final basis, and
    returns the result with its own final basis for the children.  It is
    a seam for tests and benchmarks to substitute a reference solver;
    production always runs the default.  [pool] parallelizes the LP
    relaxations of each node wave; results are identical with and without
    it.  The ["milp.slow"] {!Syccl_util.Faultpoint} latency probe
    fires at solve entry. *)

val check_feasible : model -> float array -> bool
(** True iff the point satisfies every constraint, bounds, and integrality
    (tolerance 1e-6). *)
