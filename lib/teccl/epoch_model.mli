(** The epoch-based MILP formulation of schedule synthesis (Appendix A.1).

    Time is divided into epochs of duration τ.  Binary variables [send] place
    one chunk on one directed edge at one epoch; [has] tracks possession.
    Transfers occupy their ports for ⌈β·s/τ⌉ epochs and land after
    ⌈(α+β·s)/τ⌉ epochs.  The objective minimizes the makespan epoch [T] with
    a small tie-break toward earlier individual arrivals.

    TECCL applies this model to the whole collective; SyCCL applies it to
    one merged sub-demand inside one GPU group (§5.1), warm-started by the
    greedy solution. *)

type edge = { eu : int; ev : int; edim : int }

type spec = {
  topo : Syccl_topology.Topology.t;
  chunks : Syccl_sim.Schedule.chunk_meta array;  (** gather-mode demands *)
  edges : edge array;  (** allowed directed transfers *)
  tau : float;
  horizon : int;  (** number of epochs available *)
}

val group_edges : Syccl_topology.Topology.t -> dim:int -> group:int -> edge array
(** All ordered GPU pairs inside one group (the sub-demand edge set). *)

val all_edges : Syccl_topology.Topology.t -> edge array
(** All ordered peer pairs in every dimension (the TECCL edge set), keeping
    for each pair only the lowest dimension that connects it. *)

type grid
(** A schedule with its transfers' start epochs and chunks' arrivals. *)

val replay : spec -> Syccl_sim.Schedule.t -> grid option
(** Quantize an existing schedule onto the epoch grid by replaying its
    transfers in priority order, or [None] if it does not fit in the
    horizon or uses a forbidden edge.  The horizon only decides whether it
    fits, so a grid replayed at a long horizon to size a model serves as
    {!solve}'s incumbent at any horizon its {!epochs} fit. *)

val epochs : grid -> int
(** The number of epochs the quantized schedule needs. *)

val var_count : spec -> int
(** Number of MILP variables the model would have (for cost reporting). *)

val solve :
  ?node_limit:int ->
  ?budget:Syccl_util.Budget.t ->
  ?incumbent:grid ->
  ?pool:Syccl_util.Pool.t ->
  ?relax:Syccl_milp.Lp.solver ->
  spec ->
  (Syccl_sim.Schedule.t * int) option
(** Build and solve the model; returns the schedule (priorities = start
    epochs) and its makespan in epochs, or [None] if infeasible within the
    horizon / budget and no incumbent fits.  [incumbent] is a {!replay} on
    a spec that differs from this one at most in its horizon; it is ignored
    unless its {!epochs} fit.  Models over 3000 variables are refused
    without solving (the incumbent's schedule, if any, is returned
    instead).  [budget] (default unlimited) is threaded into
    {!Syccl_milp.Milp.solve} so an expiring deadline interrupts
    branch-and-bound between pivots; a per-model limit is a
    {!Syccl_util.Budget.sub} of the caller's budget.

    Two lower bounds on the makespan are combined (their max) once per
    call: the optimum of the multi-commodity-flow relaxation, tight under
    port saturation, and the copy-growth ("doubling") bound, tight under
    propagation depth.  Branch-and-bound gets the result as a pruning
    floor and early-exit certificate (gap 0.5: an incumbent whose makespan
    reaches the bound's ceiling is returned as optimal without also
    proving the arrival tie-break optimal) — a tree-optimal broadcast
    incumbent certifies at the root without exploring any children.  [pool]
    and [relax] are forwarded to {!Syccl_milp.Milp.solve}; [relax] lets a
    test or benchmark substitute a reference LP solver, and no production
    caller passes it.  Every solve starts its root relaxation cold: a
    sub-demand class is solved once per synthesis call, so there is no
    same-shaped sibling to hand a basis to. *)
