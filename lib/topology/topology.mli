(** Symmetric multi-dimensional GPU cluster topologies (§3.1, Table 2).

    A topology places GPUs in a coordinate space: GPU identity is a vector of
    coordinates over a [shape] of axes.  A {e dimension} is one type of
    inter-GPU connection (NVLink, same-rail network, spine, ...); within a
    dimension, GPUs are partitioned into {e groups} — a group is the set of
    GPUs that agree on every axis the dimension does {e not} span (its
    non-free axes).  Groups of the same dimension are isomorphic by
    construction.

    Structure-preserving automorphisms are products of per-axis permutations;
    they map groups to groups within every dimension and are the engine
    behind sketch replication (§4.2) and isomorphism pruning (§4.1). *)

type dim = private {
  dim_name : string;
  free_axes : bool array;  (** [free_axes.(a)] iff axis [a] varies inside a group *)
  link : Link.t;  (** per-GPU port performance in this dimension *)
  port_group : int;
      (** dimensions with the same [port_group] contend for the same physical
          ingress/egress ports in the simulator (e.g. same-rail and spine
          traffic both consume the NIC) *)
  groups : int array array;  (** [groups.(g)] = sorted GPU ids of group [g] *)
  group_of : int array;  (** [group_of.(v)] = group index of GPU [v] *)
}

type t = private {
  name : string;
  shape : int array;  (** axis sizes; GPU id is the row-major encoding *)
  num_gpus : int;
  dims : dim array;
  faults : Fault.t;
      (** hardware currently down ({!Fault.empty} for a healthy topology);
          see {!puncture} *)
}

val make :
  name:string ->
  shape:int array ->
  dims:(string * int list * Link.t * int) list ->
  t
(** [make ~name ~shape ~dims] builds a topology.  Each dimension is
    [(dim_name, free_axis_indices, link, port_group)].  Free axis lists must
    be non-empty and within range.  GPU [v]'s coordinates are
    [Mixed_radix.decode ~shape v]. *)

val num_gpus : t -> int
val num_dims : t -> int
val dim : t -> int -> dim
val coords : t -> int -> int array
(** Coordinate vector of a GPU (fresh array). *)

val gpu_of_coords : t -> int array -> int

val group_of : t -> dim:int -> int -> int
(** Group index of a GPU in a dimension. *)

val gpus_in_group : t -> dim:int -> group:int -> int array
(** The member GPUs, sorted ascending (shared array, do not mutate). *)

val groups_count : t -> dim:int -> int

val peers : t -> dim:int -> int -> int array
(** GPUs reachable from a GPU within its group of [dim], excluding itself. *)

val apply_axis_perms : t -> Syccl_util.Perm.t array -> Syccl_util.Perm.t
(** [apply_axis_perms t perms] turns one permutation per axis into the
    induced GPU permutation.  Raises [Invalid_argument] if a permutation's
    length does not match its axis size. *)

val automorphism_to : t -> src:int -> dst:int -> Syccl_util.Perm.t
(** The canonical automorphism mapping GPU [src] to GPU [dst]: per-axis
    rotations by the coordinate difference.  Used to re-root sketches when
    decomposing all-to-all collectives (§4.3). *)

val is_automorphism : t -> Syccl_util.Perm.t -> bool
(** True iff the GPU permutation maps every group of every dimension onto a
    group of the same dimension. *)

val faults : t -> Fault.t
(** The fault set ({!Fault.empty} for a healthy topology). *)

val puncture : t -> Fault.t -> t
(** [puncture t f] is the surviving topology after losing the hardware in
    [f] (unioned with any faults [t] already carries).  The result's
    {!fingerprint} and [name] both fold in the canonical fault encoding, so
    caches and registries keyed on the fingerprint separate punctured
    variants from the pristine topology automatically (a name alone keys
    nothing: builders reuse names across shapes and links).  Raises
    [Invalid_argument] when an element is out of range (unknown
    GPU/dimension/port group, or link endpoints that are not peers). *)

val base : t -> t
(** The healthy topology a punctured one came from (identity when no
    faults). *)

val gpu_alive : t -> int -> bool

val edge_alive : t -> dim:int -> int -> int -> bool
(** Whether the intra-group edge between two peers of [dim] survives the
    fault set: both endpoints alive, neither endpoint's NIC for the
    dimension's port group down, and the link itself not down.  Always true
    on a healthy topology. *)

val alive_peers : t -> dim:int -> int -> int array
(** {!peers} filtered by {!edge_alive}. *)

val rotation_group : t -> Syccl_util.Perm.t list
(** All products of per-axis rotations — one element per GPU (the canonical
    {!automorphism_to} image of GPU 0).  A subgroup of the automorphism
    group, of size [num_gpus]. *)

val stabilizer : t -> Syccl_util.Perm.t list
(** The subgroup of {!rotation_group} fixing the fault set: the symmetry a
    punctured topology retains.  The whole rotation group when healthy. *)

val with_link : t -> dim:int -> Link.t -> t
(** A copy of the topology with one dimension's link class replaced — e.g. a
    degraded rail after a failure (§8 "adaptability to dynamic network
    environments"); re-synthesizing on the result adapts the schedule. *)

val fingerprint : t -> string
(** Canonical structural digest (hex): axis shape plus, per dimension, the
    free-axis subset, the exact link class (α, β bit-equal) and the port
    group.  Names are excluded, so structurally identical topologies share
    a fingerprint regardless of how they were built or labelled.  This is
    the registry key component of {!Syccl_serve.Registry}: two topologies
    with equal fingerprints are interchangeable for schedule reuse. *)

val bandwidth_share : t -> float array
(** [bandwidth_share t] is [u_d] of §4.2: for every dimension, the fraction
    of total per-GPU egress capacity it contributes.  Dimensions sharing a
    [port_group] split that port's bandwidth (only the highest-bandwidth
    class per port group is counted once). *)

val pp : Format.formatter -> t -> unit
(** Human-readable dimension/group summary in the style of Fig. 3. *)
