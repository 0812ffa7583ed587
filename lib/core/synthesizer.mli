(** The SyCCL synthesis driver (§3.3, §5): sketch exploration → sketch
    combinations → two-step sub-schedule synthesis → simulator-based
    selection. *)

type config = {
  search_config : Search.config option;  (** [None] = {!Search.default} *)
  e1 : float;  (** coarse-step epoch knob (§5.3; paper default 3.0) *)
  e2 : float;  (** fine-step epoch knob (paper default 0.5) *)
  r1 : float;  (** keep candidates within [r1] of the best (default 0.20) *)
  r2 : int;  (** keep at most [r2] candidates for the fine step (default 8) *)
  fast_only : bool;  (** skip the MILP refinement entirely *)
  milp_var_budget : int;  (** model-size cap for the epoch MILP *)
  milp_node_limit : int;
  milp_time_limit : float;  (** per-model solver budget, seconds *)
  max_shapes : int;  (** sketches kept (by α-β estimate) for combination *)
  max_combos : int;
  domains : int;
      (** parallel solver instances (§5.3); served by a persistent
          work-stealing pool ({!Syccl_util.Pool}) spawned once per level *)
  blocks : int;  (** simulator pipelining blocks *)
  deadline : float option;
      (** wall-clock budget in seconds for one {!synthesize} call (or one
          whole {!synthesize_all} sweep); [None] = unlimited.  See
          {!level} for what happens when it is too tight. *)
}

val default_config : config
(** E1 = 3.0, E2 = 0.5, R1 = 20 %, R2 = 8 (§7.1), MILP refinement on,
    no deadline. *)

type level =
  | Full  (** the full pipeline ran to completion *)
  | Fast
      (** the deadline forced degradation (truncated search/combination
          enumeration, skipped MILP refinements), or the full pipeline
          crashed and the fast-only retry succeeded *)
  | Rerouted
      (** synthesis on a punctured topology was impossible within the
          budget; the result is the healthy baseline with transfers
          rerouted around the dead hardware ({!Reroute}), still
          validate-checked *)
  | Fallback
      (** synthesis was impossible within the budget (or kept crashing);
          the result is a precomputed baseline
          ({!Syccl_baselines.Fallback}) *)

val level_name : level -> string
(** ["full"], ["fast"], ["rerouted"], ["fallback"]. *)

type breakdown = {
  search_s : float;
  combine_s : float;
  solve1_s : float;
  solve2_s : float;
  cache_hits : int;
      (** isomorphism classes this call found in its own sub-solve memo *)
  cache_misses : int;  (** classes this call had to solve *)
  milp_solves : int;  (** MILP models solved during this call *)
  milp_nodes : int;  (** branch-and-bound nodes explored during this call *)
  flow_certified : int;
      (** MILP solves stopped early because the incumbent met the
          multi-commodity-flow lower bound (within-ε-of-flow-optimal
          certificate; see {!Syccl_teccl.Epoch_model.solve}) *)
}
(** Wall-clock per synthesis step (Fig. 16b) plus solver/cache activity.
    [cache_hits]/[cache_misses] are the call's exact counts.  The MILP
    fields are deltas of the process-wide {!Syccl_util.Counters} cells
    taken around the call: exact for a lone [synthesize], attributed to
    the whole sweep element when calls run concurrently (the counters are
    shared). *)

val zero_breakdown : breakdown
(** No time spent, no solver activity: the breakdown of an outcome that
    ran no synthesis stage (a registry hit, a baseline rung). *)

type outcome = {
  schedules : Syccl_sim.Schedule.t list;  (** one per collective phase *)
  time : float;  (** simulated completion time, seconds *)
  busbw : float;  (** bus bandwidth, GB/s *)
  synth_time : float;
  breakdown : breakdown;
  num_sketches : int;
  num_combos : int;
  chosen : string;  (** description of the winning combination *)
  degraded : level;  (** which rung of the degradation ladder produced this *)
  degrade_reason : string option;
      (** why ([None] iff [degraded = Full]): ["deadline"], or the
          exception that killed the higher rung(s).  When [degraded =
          Fallback], [time]/[busbw] are [nan] if the simulator itself was
          the failing component. *)
}

val synthesize :
  ?config:config ->
  Syccl_topology.Topology.t ->
  Syccl_collective.Collective.t ->
  outcome
(** Synthesize a schedule for the collective on the topology.  AllReduce is
    synthesized as ReduceScatter followed by AllGather (§4.3).

    A function of the request: the same topology, collective and config
    give the same schedule (and simulated time) for any pool size and
    whatever the process synthesized before, except where a MILP
    wall-clock limit ([milp_time_limit]) or [deadline] cuts a solve.
    Each isomorphism class of sub-demands is solved once per call and
    memoized for the rest of that call only — across combinations, the
    coarse and fine steps, and AllReduce's two phases.  The sketch-search
    and combination caches are shared process-wide; both are pure
    functions of a key that covers the topology's
    {!Syccl_topology.Topology.fingerprint}.  Counters under ["cache.*"],
    ["pool.*"] and ["synth.*"] ({!Syccl_util.Counters}) record activity.

    Robustness: with [config.deadline = Some d] the whole call is budgeted
    to [d] seconds — every stage checks the shared budget cooperatively
    and degrades (returns its incumbent, skips refinement, falls back)
    rather than overshooting by more than one solver check interval.  The
    call runs a degradation ladder — full pipeline, then a fast-only
    retry if the full pipeline raised, then {!Syccl_baselines.Fallback} —
    and [outcome.degraded] reports which rung produced the result.  Every
    rung, fallback included, must pass {!Syccl_sim.Validate.validate}; the
    call raises only when even the baseline rung cannot produce a valid
    schedule (or the collective/topology GPU counts mismatch, which is
    reported as [Invalid_argument] before the ladder engages).
    Deadline-degraded sub-results are never memoized: a truncated search
    or combination list never enters the shared caches, and a degraded
    sub-solve is re-solved by a later phase of the same call. *)

val synthesize_all :
  ?config:config ->
  Syccl_topology.Topology.t ->
  Syccl_collective.Collective.t list ->
  outcome list
(** Synthesize a series (e.g. a size sweep) concurrently on the persistent
    pool, preserving order.  With [config.domains <= 1] this is a
    sequential map.

    Every element's outcome equals a standalone {!synthesize} of it,
    independent of its siblings, pool size and worker scheduling.

    Fault isolation: each element runs the degradation ladder inside its
    own pool task under its own budget (the sweep shares one
    [config.deadline] window), so a crashing or expiring element yields a
    degraded outcome for that element only — siblings and the sweep keep
    going.  If an element dies before the ladder can catch it (e.g. the
    ["pool.crash"] fault point), this wrapper substitutes the baseline
    fallback outcome; use {!synthesize_all_results} to observe such
    per-element errors instead. *)

val synthesize_all_results :
  ?config:config ->
  Syccl_topology.Topology.t ->
  Syccl_collective.Collective.t list ->
  (outcome, string) result list
(** Like {!synthesize_all}, but an element whose task failed outside the
    degradation ladder is reported as [Error] (the exception text) in its
    list position instead of being replaced by a fallback outcome. *)

val reset_caches : unit -> unit
(** Drop the sketch-search and combination caches, so the next call pays
    for search and combination again (used by benchmarks that time cold
    synthesis).  Outcomes do not change. *)
