(** The TECCL baseline synthesizer (Liu et al., SIGCOMM 2024), reproduced on
    top of this repository's substrates (§2.3, Appendix A).

    TECCL encodes the {e whole} collective over the {e whole} topology as one
    epoch-based MILP.  At the scales our from-scratch solver (and, in the
    paper, Gurobi) can handle, that model is solved directly; beyond that,
    TECCL's published fallback — greedy per-interval heuristics — kicks in,
    which is what this implementation uses: multi-restart greedy
    earliest-finish construction, plus an epoch-MILP refinement whenever the
    model stays under a variable budget.  A configurable wall-clock budget
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
  ?time_budget:float ->
  ?budget:Syccl_util.Budget.t ->
  ?milp_var_budget:int ->
  ?e_value:float ->
  Syccl_topology.Topology.t ->
  Syccl_collective.Collective.t ->
  outcome
(** Synthesize schedules for every phase of the collective.  [restarts]
    defaults to 3 below 64 GPUs and 1 above; [time_budget] (default 600 s)
    bounds the whole synthesis; [budget] is an externally shared deadline /
    cancellation token that [time_budget] further narrows — both are
    observed by the greedy inner loop and the epoch MILP; [milp_var_budget]
    (default 2500) bounds the size of models handed to the MILP; [e_value]
    is the epoch-accuracy knob (default 1.0). *)

val busbw :
  ?blocks:int ->
  Syccl_topology.Topology.t ->
  Syccl_collective.Collective.t ->
  outcome ->
  float option
(** Bus bandwidth of a synthesis outcome, [None] on timeout. *)
