(** Reference sketch search: {!Syccl.Search.run} as it was before its
    coverage counts became incremental and its fingerprints moved onto
    reused int buffers, kept as that search's differential oracle (the way
    {!Sim_ref} judges the simulator kernel).  Same enumeration order, same
    prunings, same caps, same budget behaviour, and its own copies of the
    structural labels, chain hash and sketch signature, so the fingerprint
    values the dedup tables key on are pinned too.  Not for production: it
    re-applies every rejected stage in full and rebuilds sorted lists at
    every node. *)

val run :
  ?config:Syccl.Search.config ->
  ?budget:Syccl_util.Budget.t ->
  ?truncated:bool ref ->
  Syccl_topology.Topology.t ->
  kind:Syccl.Sketch.kind ->
  root:int ->
  Syccl.Sketch.t list
(** Enumerate like {!Syccl.Search.run}; a correct search returns a
    structurally equal list in the same order and sets [truncated] alike. *)

val structural_labels :
  Syccl_topology.Topology.t ->
  root:int ->
  stage_of:int array ->
  parent:int array ->
  dim_of:int array ->
  int array
(** The list-built structural labels {!Syccl.Sketch.structural_labels}
    must reproduce value for value. *)

val signature : Syccl_topology.Topology.t -> Syccl.Sketch.t -> int
(** The list-built sketch signature {!Syccl.Sketch.signature} must
    reproduce. *)
