(** Reference α-β simulator: the event loop {!Syccl_sim.Sim.run} used
    before its kernel was flattened into per-block int arrays and int
    heaps, kept as that kernel's differential oracle (the way
    [Lp_dense] judges the sparse simplex).  Same cost model, same
    (availability, priority, transfer, block) pop order, same error
    messages; no trace export and no fault probe.  Not for production:
    it allocates a queue record and hashes a tuple key per block event. *)

val run :
  ?blocks:int -> Syccl_topology.Topology.t -> Syccl_sim.Schedule.t ->
  Syccl_sim.Sim.report
(** Simulate like {!Syccl_sim.Sim.run}; a correct kernel agrees with it
    bit for bit on [time], [events] and every [xfer_finish], or raises
    the same exception. *)

val identical : Syccl_sim.Sim.report -> Syccl_sim.Sim.report -> bool
(** Bit-for-bit equality of two reports: [time], [events] and every
    [xfer_finish], floats compared by [Int64.bits_of_float]. *)
