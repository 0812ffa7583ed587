(** The retired dense two-phase primal simplex, kept as a
    differential test oracle for the revised solver in {!Syccl_milp.Lp}.

    Production code must not call this: every pivot rewrites a dense
    [(m+1) × (cols+1)] tableau, which is exactly the cost profile the
    sparse revised simplex replaced (the lint rule banning dense matrix
    allocations in [lib/milp/] keeps it from coming back there).  The
    fuzz properties ["lp-differential"] and ["milp-differential"] and the
    [bench milp] A/B target run it against the revised solver on identical
    problems, asserting status agreement and objective equality. *)

val solve :
  ?max_iters:int ->
  ?budget:Syccl_util.Budget.t ->
  Syccl_milp.Lp.problem ->
  Syccl_milp.Lp.result
(** Identical contract to the pre-rewrite [Lp.solve]: bounds are not
    supported natively — encode them as explicit constraint rows. *)

val relax : Syccl_milp.Lp.solver
(** {!solve} in the shape of {!Syccl_milp.Lp.solve_bounded}, for
    [Milp.solve ~relax]: each positive lower and finite upper bound
    becomes a constraint row, [warm] is ignored (a tableau starts cold)
    and no basis is returned, so branch-and-bound children start cold
    too.  Raises [Invalid_argument] on a negative lower bound. *)
