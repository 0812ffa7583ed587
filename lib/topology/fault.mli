(** Fault sets: the links, GPUs and NICs a punctured topology has lost.

    A set is canonical (sorted, deduplicated, link endpoints ordered) and
    has an exact round-trip string encoding ([gpu:3], [link:1:0-4],
    [nic:2@1], comma-joined).  The encoding is folded into
    {!Topology.fingerprint} and registry keys, so two spellings of the same
    failure always collapse to the same entry. *)

type elt =
  | Gpu of int  (** GPU [g] is down: every edge touching it is dead. *)
  | Link of { dim : int; a : int; b : int }
      (** The undirected intra-group edge between [a] and [b] in dimension
          [dim] is down.  Canonical form has [a < b]. *)
  | Nic of { gpu : int; port_group : int }
      (** The NIC serving [port_group] on [gpu] is down: every edge of
          every dimension using that port group at [gpu] is dead. *)

type t
(** A canonical fault set.  Structural [compare] is a total order. *)

val empty : t
val is_empty : t -> bool
val of_list : elt list -> t
(** Canonicalize: order link endpoints, sort, deduplicate.  Raises
    [Invalid_argument] on negative indices or a self-link. *)

val elements : t -> elt list
(** In canonical order. *)

val union : t -> t -> t
val equal : t -> t -> bool
val compare : t -> t -> int

val encode : t -> string
(** Canonical string form; [""] for {!empty}. *)

val decode : string -> t
(** Exact inverse of {!encode}; raises [Invalid_argument] on malformed or
    non-canonical input (wrong order, duplicates, leading zeros). *)

val map : Syccl_util.Perm.t -> t -> t
(** Image under a GPU relabelling.  Only meaningful when the permutation
    is an automorphism of the topology the faults refer to. *)
