(** α-β event-driven schedule simulator (§5.2).

    Chunks are split into [blocks] equal blocks which pipeline across hops:
    block [b] of a relayed transfer may be injected as soon as block [b]
    arrived at the relay.  Ports — one egress and one ingress per (GPU, port
    group) — serialize at [β·block_size] per block; a block lands
    [α + β·block_size] after it starts.  Every block event is processed
    exactly once, so the cost is O(events · log events).

    Cost model of the kernel: each block is one int id (its transfer's
    offset plus the block index; transfers take their id ranges in
    (priority, transfer) order), its state lives in flat per-id arrays,
    and the main queue and the per-port waiting queues are int binary
    heaps ordered by (key, id) — which is (key, priority, transfer,
    block) order.  Ports and the two per-block costs are computed once
    per transfer.  A block event allocates nothing beyond the amortized
    doubling of a queue, so the garbage a run leaves is proportional to
    the schedule's transfers and blocks, not to its events.  The retired
    record-and-hash kernel is kept in [lib/check] ([Sim_ref]) as this
    one's differential oracle: both pop blocks in the same order and
    perform the same float operations, so they agree bit for bit. *)

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
  ?blocks:int -> ?stop:(float -> bool) -> Syccl_topology.Topology.t ->
  Schedule.t list -> float
(** Completion time of a collective's phase schedules run back to back
    (AllReduce = ReduceScatter then AllGather, §4.3): {!time} summed over
    the phases in order, from [0.0].

    Early exit: with [stop], the simulation tracks the bound
    L = (completed phases) + (running makespan of the current phase),
    offers each new value of L to [stop], and returns the first L that
    [stop] accepts without finishing; if none is accepted the result is
    the full sum.  The makespan only grows, and IEEE addition rounds
    monotonically, so every L offered is at most the full sum.  Hence for
    a predicate that is monotone in L (once true, true for every larger
    L) — such as [fun l -> t <= l *. (1. +. tol)] — an accepted L implies
    [stop] holds at the full result too, so whether [stop] holds at the
    returned value is the same as at the full sum.  An exit may also
    pre-empt a failure (deadlock, event cap) the full simulation would
    have raised later. *)
