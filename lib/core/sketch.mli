(** Sketches: per-stage, per-dimension decompositions of a one-to-all demand
    (§3.2, Table 3).

    A sketch is represented as the coverage tree it induces: each non-root
    GPU records the stage at which it first obtains data, the parent it
    obtains it from, and the dimension the transfer uses.  Sub-demands
    [R_{k,d,g}] (Table 3) are recovered by grouping destinations per (stage,
    dimension, group); sources are every already-covered GPU of the group,
    leaving the exact sender choice to the sub-schedule solver (§5.1). *)

type kind = [ `Broadcast | `Scatter ]

type t = private {
  root : int;
  kind : kind;
  num_stages : int;
  stage_of : int array;  (** stage at which each GPU is covered; -1 = root *)
  parent : int array;  (** covering parent; -1 = root *)
  dim_of : int array;  (** dimension of the covering transfer; -1 = root *)
}

val make :
  root:int ->
  kind:kind ->
  num_stages:int ->
  stage_of:int array ->
  parent:int array ->
  dim_of:int array ->
  t
(** Validates tree shape: exactly one root, parents covered strictly earlier,
    stages within range.  (Peer-ness per dimension is validated by
    {!check}.) *)

val check : Syccl_topology.Topology.t -> t -> (unit, string) result
(** Every edge must connect peers of its dimension. *)

(** The communication sub-demand of one group at one stage (Table 3). *)
type subdemand = {
  sd_stage : int;
  sd_dim : int;
  sd_group : int;
  srcs : int list;  (** covered GPUs of the group at stage start *)
  dsts : int list;  (** GPUs covered in this group at this stage *)
}

val subdemands : Syccl_topology.Topology.t -> t -> subdemand list
(** All sub-demands, ordered by (stage, dim, group). *)

val descendants : t -> int array
(** [descendants s].(v) = number of GPUs whose path from the root passes
    through [v]; drives the Scatter workload and pruning #3. *)

val depth : t -> int array
(** Hops from the root (0 for the root itself). *)

val workload : Syccl_topology.Topology.t -> t -> float array array
(** [w.(d).(g)] per §4.2: destination count per (dim, group) for Broadcast;
    Σ (descendants+1) for Scatter. *)

val dim_workload : Syccl_topology.Topology.t -> t -> float array
(** Per-dimension totals [w_d = Σ_g w_{d,g}]. *)

val structural_labels :
  Syccl_topology.Topology.t ->
  root:int ->
  stage_of:int array ->
  parent:int array ->
  dim_of:int array ->
  int array
(** Isomorphism-invariant per-GPU labels of a (possibly partial) coverage
    tree: parent-chain labels refined by two Weisfeiler-Leman rounds over
    group memberships.  Uncovered GPUs (stage −1, not the root) get label 0.
    Shared by {!signature} and the search's partial-state deduplication. *)

val signature : Syccl_topology.Topology.t -> t -> int
(** Isomorphism-invariant hash (pruning #1, §4.1): sketches related by a
    structure-preserving GPU permutation share a signature. *)

type fingerprints
(** Reusable int buffers for one topology's labels and signatures, for a
    caller that fingerprints many trees over the same topology (the
    search).  Not safe to share between concurrent callers. *)

val fingerprints : Syccl_topology.Topology.t -> fingerprints

val label_multiset :
  fingerprints ->
  root:int ->
  stage_of:int array ->
  parent:int array ->
  dim_of:int array ->
  int
(** Chain hash of the ascending multiset of {!structural_labels} of a
    (possibly partial) tree: the search's partial-state fingerprint. *)

val signature_of :
  fingerprints ->
  kind:kind ->
  num_stages:int ->
  root:int ->
  stage_of:int array ->
  parent:int array ->
  dim_of:int array ->
  int
(** {!signature} of the complete tree these arrays describe, without
    building the sketch. *)

val map : Syccl_topology.Topology.t -> Syccl_util.Perm.t -> t -> t
(** Relabel through a topology automorphism (replication, §4.2–4.3).
    Dimensions are preserved; groups move with the permutation. *)

(** The dimension/fan-out skeleton of a sketch: for each stage, the
    dimensions used and how many destinations each participating group
    covers.  Replication re-instantiates a shape with load-aware destination
    choices (§4.2 step 1). *)
type shape = (int * int) list array

val shape : Syccl_topology.Topology.t -> t -> shape

val pp : Format.formatter -> t -> unit
