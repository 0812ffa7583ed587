(** Pre-warmed failover serving: enumerate fault classes up to symmetry,
    synthesize one representative per orbit, transport the result to every
    equivalent fault set.

    A punctured topology keeps part of its symmetry — the subgroup of the
    rotation group fixing the fault set ({!Syccl_topology.Topology.stabilizer}).
    Dually, the rotation group partitions the {e fault sets themselves} into
    orbits: two single-link failures related by an automorphism need only
    one synthesis, because transporting the schedule along the automorphism
    ({!Syccl_sim.Transport}) yields a valid, equal-cost schedule for the
    other.  [syccl warm --faults K] leans on this to populate the registry
    for every <=K-link fault class at orbit cost, not member cost. *)

val link_elements :
  Syccl_topology.Topology.t -> Syccl_topology.Fault.elt list
(** Every single intra-group edge of every dimension, as fault elements —
    the default universe {!fault_sets} draws from. *)

val nic_elements :
  Syccl_topology.Topology.t -> Syccl_topology.Fault.elt list
(** One NIC element per (GPU, port group present in the topology).
    Demand-preserving — every rank stays alive — so NIC classes are
    warmable like links. *)

val gpu_elements :
  Syccl_topology.Topology.t -> Syccl_topology.Fault.elt list
(** One whole-GPU element per rank.  Servable (puncture accepts them) but
    not warmable: losing a rank changes the collective demand itself, so
    {!warm} enumerates these classes only to count and skip them. *)

val fault_elements :
  Syccl_topology.Topology.t -> Syccl_topology.Fault.elt list
(** The full warming universe: links, then NICs, then GPUs. *)

val demand_changing : Syccl_topology.Fault.t -> bool
(** Whether serving under this fault set changes the collective demand's
    shape — true iff the set kills a whole GPU. *)

val fault_sets :
  ?elements:Syccl_topology.Fault.elt list ->
  Syccl_topology.Topology.t -> k:int -> Syccl_topology.Fault.t list
(** All distinct fault sets of 1 to [k] elements drawn from [elements]
    (default {!link_elements}), canonical and sorted.  Raises
    [Invalid_argument] when [k < 1]. *)

val symmetry_group :
  Syccl_topology.Topology.t -> Syccl_collective.Collective.t ->
  Syccl_util.Perm.t list
(** The subgroup of the (healthy base) rotation group preserving the
    collective: everything for non-rooted kinds, rotations fixing the root
    for rooted kinds (root and peer for SendRecv).  Transport along any
    element maps a schedule for the collective to a schedule for the same
    collective. *)

val orbits :
  ?elements:Syccl_topology.Fault.elt list ->
  Syccl_topology.Topology.t -> Syccl_collective.Collective.t -> k:int ->
  (Syccl_topology.Fault.t * Syccl_topology.Fault.t list) list
(** {!fault_sets} partitioned into orbits under {!symmetry_group}, each as
    [(canonical representative, members)]. *)

type stats = {
  sets : int;  (** warmable fault sets enumerated (orbit members, total) *)
  orbits : int;  (** warmable equivalence classes — syntheses needed *)
  rep_hits : int;  (** representatives already served from the registry *)
  rep_synthesized : int;  (** representatives synthesized cold *)
  transported : int;  (** member entries stored by schedule transport *)
  resynthesized : int;
      (** members synthesized directly because transport failed (ambiguous
          tag signature) or its result failed admission — the correctness
          net *)
  skipped : int;
      (** members left cold (degraded/fast-only representative, or a store
          failure) — never silently served *)
  skipped_demand : int;
      (** classes skipped because their fault set kills a rank and so
          changes the demand's shape (also counted on the
          failover.skipped_demand counter) *)
}

val warm :
  registry:Registry.t ->
  ?audit:Audit.t ->
  ?config:Syccl.Synthesizer.config ->
  topology:string ->
  collective:string ->
  size:float ->
  int ->
  stats
(** [warm ~registry ~topology ~collective ~size k] pre-populates the
    registry for every <=[k]-element link/NIC fault set of the topology
    (GPU classes are enumerated but skipped — see [skipped_demand]): one
    {!Serve.run} per orbit representative (cold syntheses are stored under
    the punctured fingerprint by the ordinary serving policy), then each
    remaining orbit member receives the representative's schedule
    transported along the relating automorphism — admitted on the member's
    punctured topology by {!Registry.admit} and stored at its simulated
    cost through {!Serve.store} — so a later request with {e any}
    enumerated fault set is a registry hit.  Members whose transport or
    admission fails are synthesized directly; members of a degraded
    representative are skipped (stored entries are Full-quality only,
    matching {!Serve}). *)
