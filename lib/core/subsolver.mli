(** Sub-schedule synthesis for sketch combinations (§5.1, §5.3).

    Planning turns a combination into a global chunk table plus {e merged
    sub-demands} — one per (stage, dimension, group) slice, holding every
    chunk fragment that must move inside that group at that stage.
    Sub-demands are partitioned into isomorphism classes; one representative
    per class is solved (greedy fast path, optionally refined by the epoch
    MILP warm-started with the greedy incumbent) and the solution is mapped
    onto the other members through an intra-group position bijection,
    verified, with a direct re-solve as fallback. *)

type strategy =
  | Fast_only  (** greedy earliest-finish only (step-1 "fast solving") *)
  | Milp_refine of {
      e : float;  (** epoch-accuracy knob (Appendix A.3) *)
      var_budget : int;  (** skip MILP when the model would exceed this *)
      node_limit : int;
      time_limit : float;
          (** seconds per model, a {!Syccl_util.Budget.sub} of the call's *)
    }  (** greedy incumbent + epoch-MILP refinement ("accurate solving") *)

type entry = {
  chunk : int;  (** global chunk id *)
  e_size : float;
  e_srcs : int list;  (** GPUs of the group holding the chunk at stage start *)
  e_dsts : int list;  (** GPUs of the group that must receive it this stage *)
}

type demand = { d_stage : int; d_dim : int; d_group : int; entries : entry list }

type plan = {
  chunks : Syccl_sim.Schedule.chunk_meta array;  (** global chunk table *)
  demands : demand list;
}

val plan :
  Syccl_topology.Topology.t ->
  Syccl_collective.Collective.t ->
  Combine.combo ->
  plan
(** Build the chunk table and merged sub-demands for one combination of one
    single-phase collective (reduce-family phases are planned as their dual
    gather problem; the caller reverses the assembled schedule). *)

val class_key : Syccl_topology.Topology.t -> demand -> string
(** Canonical isomorphism-class key: demands with equal keys are solved once
    per synthesis call (§5.3).  Entry sizes are part of the key, so demands
    that differ only in chunk size are different classes. *)

val solve_demand :
  ?warm:Syccl_sim.Schedule.xfer list ->
  ?budget:Syccl_util.Budget.t ->
  ?pool:Syccl_util.Pool.t ->
  strategy ->
  Syccl_topology.Topology.t ->
  demand ->
  Syccl_sim.Schedule.xfer list
(** Solve one sub-demand; transfers use {e local} chunk ids (entry order).
    [warm], if given and valid for the demand, competes with the greedy
    incumbent before MILP refinement (the fine step warm-starts from the
    coarse step's solution this way).  [pool] parallelizes MILP node waves
    (forwarded to {!Syccl_teccl.Epoch_model.solve}).  Each MILP starts
    from a cold root relaxation: the caller solves one representative per
    isomorphism class, so no same-shaped sibling solve precedes it.

    Deadline behaviour: an already-expired [budget] returns the (valid,
    unoptimized) direct candidate immediately; MILP refinement is skipped
    when the remaining budget is below the estimated solve time (p90 of
    the process-wide ["milp.solve_s"] history), and a refinement that
    returns with the budget expired counts as cut short by it.  Every
    budget-forced shortcut bumps ["subsolve.budget_skips"] and marks the
    budget degraded ({!Syccl_util.Budget.mark_degraded}); a model stopped
    by its own [time_limit] alone does not.  The ["subsolver.crash"]
    {!Syccl_util.Faultpoint} probe fires at entry. *)

val transfer :
  Syccl_topology.Topology.t ->
  rep:demand ->
  rep_xfers:Syccl_sim.Schedule.xfer list ->
  demand ->
  Syccl_sim.Schedule.xfer list option
(** Map a representative's solution onto an isomorphic demand; [None] if the
    mapped solution fails verification.  When the two demands live in the
    same group of the same dimension and have structurally equal entries
    the mapping is the identity and the (simulation-based) verification is
    skipped; equal entries under a different dim/group take the general,
    verified path.  Staged: [transfer topo ~rep ~rep_xfers] computes the
    representative's canonical positions once, for every member of its
    class. *)

val assemble :
  plan ->
  solution:(int -> demand -> Syccl_sim.Schedule.xfer list) ->
  Syccl_sim.Schedule.t
(** Stitch per-demand solutions (local chunk ids) into the full schedule:
    chunk ids are globalized, priorities offset by stage so cross-stage
    pipelining is decided by data dependencies (Fig. 12b).  [solution i d]
    solves [d], the [i]-th of [plan.demands]. *)
