(** The TECCL baseline synthesizer (Liu et al., SIGCOMM 2024), reproduced on
    top of this repository's substrates (§2.3, Appendix A).

    TECCL encodes the {e whole} collective over the {e whole} topology as one
    epoch-based MILP.  At the scales our from-scratch solver (and, in the
    paper, Gurobi) can handle, that model is solved directly; beyond that,
    TECCL's published fallback — greedy per-interval heuristics — kicks in,
    which is what this implementation uses: multi-restart greedy
    earliest-finish construction, plus an epoch-MILP refinement whenever the
    model stays under a variable budget.  The caller's {!Syccl_util.Budget.t}
    reproduces the paper's timeout behaviour (Fig. 15b). *)

type outcome = {
  schedules : Syccl_sim.Schedule.t list option;
      (** one schedule per collective phase, or [None] on timeout *)
  synth_time : float;  (** wall-clock seconds spent synthesizing *)
  used_milp : bool;  (** whether the epoch MILP refined the greedy result *)
}

val synthesize :
  ?seed:int ->
  ?restarts:int ->
  ?budget:Syccl_util.Budget.t ->
  ?milp_var_budget:int ->
  Syccl_topology.Topology.t ->
  Syccl_collective.Collective.t ->
  outcome
(** Synthesize schedules for every phase of the collective.  [restarts]
    defaults to 3 below 64 GPUs and 1 above; [budget] (default unlimited)
    bounds the whole synthesis — its deadline is observed by the greedy
    inner loop and the epoch MILP, and a phase whose greedy runs it cuts
    short before any completes yields [schedules = None]; each epoch
    model is further capped at 60 s inside it;
    [milp_var_budget] (default 2500) bounds the
    size of models handed to the MILP.  The models use the epoch-accuracy
    knob E = 1.0 (Appendix A.3). *)

val busbw :
  ?blocks:int ->
  Syccl_topology.Topology.t ->
  Syccl_collective.Collective.t ->
  outcome ->
  float option
(** Bus bandwidth of a synthesis outcome, [None] on timeout. *)
