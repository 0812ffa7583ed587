(** Independent reference interpreter for schedule semantics — the
    differential oracle for {!Syccl_sim.Validate}.

    Gather chunks propagate holder sets to a fixpoint and count deliveries;
    reduce chunks execute under the simulator's need-counting rule and
    propagate multisets of contributor ids, so duplicated, dropped,
    garbage-fed or cyclic transfers surface as a wrong contribution
    multiset at the destination or as a stalled execution.  Shares no code
    or traversal order with [Validate]: a hole must exist in both,
    independently, to go unnoticed. *)

val run_schedule : Syccl_sim.Schedule.t -> (unit, string) result
(** Execute every chunk of one phase schedule under reference semantics. *)

val covers_phase :
  Syccl_collective.Collective.t -> Syccl_sim.Schedule.t ->
  (unit, string) result
(** {!run_schedule} plus demand coverage for one collective phase: sizes
    sum per tag, gather sources/destinations and exact reduce contributor
    sets match the demand. *)

val covers :
  Syccl_topology.Topology.t -> Syccl_collective.Collective.t ->
  Syccl_sim.Schedule.t list -> (unit, string) result
(** Whole-outcome check: one schedule per collective phase. *)

val lower_check :
  ?channels:int -> Syccl_serve.Request.t -> Syccl.Synthesizer.outcome ->
  (unit, string) result
(** The [syccl lower --check] hook for {!Syccl_serve.Serve.run}: lower,
    parse back and replay each phase of the served schedules
    ({!Syccl_sim.Msccl_interp.check_lowering}, [channels] default 1), then
    cross-check them with {!covers}, whose divergence is prefixed
    ["reference checker divergence: "]. *)
