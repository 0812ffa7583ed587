(** Greedy earliest-finish store-and-forward synthesis.

    This is the heuristic TECCL falls back to at scale (§2.3: interval-based
    greedy), and the "fast solving" path SyCCL warm-starts its MILP with
    (§5.3).  The algorithm keeps per-port free times and per-(chunk, GPU)
    hold times and repeatedly commits the candidate transfer with the
    earliest finish time, optionally restricted to a set of (dimension,
    group) pairs. *)

type restriction = All | Groups of (int * int) list
(** [Groups \[(d, g); ...\]] only allows transfers inside group [g] of
    dimension [d]. *)

val solve :
  ?rng:Syccl_util.Xrand.t ->
  ?restrict:restriction ->
  ?budget:Syccl_util.Budget.t ->
  Syccl_topology.Topology.t ->
  Syccl_sim.Schedule.chunk_meta array ->
  Syccl_sim.Schedule.t option
(** Synthesize a schedule delivering every gather chunk to its [wanted] GPUs
    (reduce chunks must be mirrored by the caller).  Each step examines at
    most six candidate senders per (chunk, destination), plus the holders
    in the destination's most local group, and scores a candidate by its
    finish time plus the port time it consumes, which steers the search
    away from re-crossing scarce links; [rng] perturbs tie-breaking for
    restart diversity.  Returns [None] when [budget] (default unlimited)
    expires before the demand is met; it is checked once
    per committed transfer.  A caller that wants a time box of its own
    passes a fresh {!Syccl_util.Budget.create}. *)
