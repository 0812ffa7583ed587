(** α-β event-driven schedule simulator (§5.2).

    Chunks are split into [blocks] equal blocks which pipeline across hops:
    block [b] of a relayed transfer may be injected as soon as block [b]
    arrived at the relay.  Ports — one egress and one ingress per (GPU, port
    group) — serialize at [β·block_size] per block; a block lands
    [α + β·block_size] after it starts.  Every block event is processed
    exactly once, so the cost is O(events · log events). *)

type report = {
  time : float;  (** completion time of the whole schedule, seconds *)
  events : int;  (** number of block events processed *)
  xfer_finish : float array;  (** finish time of each transfer (last block) *)
}

val run :
  ?blocks:int -> ?trace_pid:int -> Syccl_topology.Topology.t -> Schedule.t ->
  report
(** Simulate.  [blocks] defaults to 8; it is clamped so blocks are at least
    one byte.  Raises [Invalid_argument] if a transfer references a missing
    chunk or its endpoints are not peers in its dimension, and [Failure] if
    the schedule deadlocks (a transfer's data dependency never resolves).

    With [trace_pid] (and {!Syccl_util.Trace.enabled}), every executed
    block is exported as a virtual-time span on a per-(GPU, port group,
    direction) track under that trace pid — one track per active port,
    numbered and named ["gpu<g> pg<p> out|in"] — so the schedule renders
    as a link-occupancy Gantt chart in Perfetto.  Use a distinct pid per
    simulated schedule (e.g. per phase) to keep timelines separate.

    The ["sim.crash"] {!Syccl_util.Faultpoint} probe fires at entry, for
    testing that callers tolerate simulator failures. *)

val time : ?blocks:int -> Syccl_topology.Topology.t -> Schedule.t -> float
(** [time topo s] = [(run topo s).time]. *)

val phases_time :
  ?blocks:int -> Syccl_topology.Topology.t -> Schedule.t list -> float
(** Completion time of a collective's phase schedules run back to back
    (AllReduce = ReduceScatter then AllGather, §4.3): {!time} summed over
    the phases in order, from [0.0]. *)
