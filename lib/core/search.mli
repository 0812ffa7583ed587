(** Enumeration-based sketch search with symmetry prunings (§4.1).

    The search walks stages: at each stage it picks a subset of dimensions, a
    per-dimension destination fan-out, and lets every eligible group (one
    with both covered and uncovered GPUs) participate with that fan-out.
    Prunings: #1 drops isomorphic duplicates via {!Sketch.signature}; #2
    requires consistent (|srcs|, |dsts|) profiles across a dimension's
    participating groups; #3 bounds the hop depth of Scatter trees. *)

type config = {
  max_stages : int;
  prune_isomorphic : bool;  (** pruning #1 *)
  prune_consistency : bool;  (** pruning #2 *)
  relay_limit : int option;  (** pruning #3 (Scatter); [None] disables *)
  max_sketches : int;  (** emission cap *)
  node_budget : int;  (** recursion-node cap, guards ablation runs *)
}

val default : Syccl_topology.Topology.t -> Sketch.kind -> config
(** [max_stages = |D|+1], all prunings on, relay limit [|D|−1] for Scatter. *)

val run :
  ?config:config ->
  ?budget:Syccl_util.Budget.t ->
  ?truncated:bool ref ->
  Syccl_topology.Topology.t ->
  kind:Sketch.kind ->
  root:int ->
  Sketch.t list
(** Enumerate sketches rooted at [root] covering every GPU.  [budget] is
    checked every few dozen enumeration nodes; on expiry the search stops
    and returns the sketches emitted so far, setting [truncated] (if
    given).  A truncated sketch list depends on where the deadline fell,
    so callers must not memoize it. *)

val instantiate :
  Syccl_topology.Topology.t ->
  kind:Sketch.kind ->
  root:int ->
  shape:Sketch.shape ->
  load:float array array ->
  Sketch.t option
(** Re-instantiate a sketch shape, choosing destinations that steer later
    sources toward the least-loaded groups (replication mapping, §4.2 step 1).
    [load] is the accumulated per-(dim, group) workload of previously
    instantiated replicas; it is {e not} modified.  Returns [None] when the
    shape cannot cover every GPU from [root]. *)
