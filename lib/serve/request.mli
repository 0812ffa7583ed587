(** Synthesis requests: the one front door to the synthesizer.

    A request names everything an outcome depends on — topology (identified
    structurally by {!Syccl_topology.Topology.fingerprint}), collective,
    size, synthesis config, deadline — and has a canonical JSON encoding,
    so CLI subcommands, batch JSONL files, tests and benches all build the
    same value and the pipeline ({!Serve}) can key caches and dedupe work
    on its digest. *)

type t = {
  topo_name : string;  (** the name the topology was requested under *)
  topo : Syccl_topology.Topology.t;
  coll : Syccl_collective.Collective.t;
  config : Syccl.Synthesizer.config;
      (** full synthesis config; [config.deadline] is the request deadline *)
}

val topo_of_name : string -> Syccl_topology.Topology.t
(** Resolve a topology name ([a100-16], [h800-64], [fig3],
    [multirail:SxG], ...).  Raises [Failure] on an unknown name.  This is
    the resolver the CLI historically owned; it lives here so every
    front-end accepts the same names. *)

val coll_of_name :
  ?root:int -> ?peer:int -> string -> n:int -> size:float ->
  Syccl_collective.Collective.t
(** Resolve a collective name ([allgather]/[ag], [alltoall]/[a2a], ...). *)

val make :
  ?config:Syccl.Synthesizer.config ->
  ?root:int ->
  ?peer:int ->
  ?faults:Syccl_topology.Fault.t ->
  topology:string ->
  collective:string ->
  size:float ->
  unit ->
  t
(** Build a request from names; [config] defaults to
    {!Syccl.Synthesizer.default_config}.  A non-empty [faults] set
    punctures the named topology ({!Syccl_topology.Topology.puncture}), so
    the request targets the surviving hardware and its key separates from
    the healthy topology's. *)

val faults : t -> Syccl_topology.Fault.t
(** The fault set the request's topology carries ({!Syccl_topology.Fault.empty}
    when healthy). *)

val key : t -> string
(** Canonical digest of everything that determines the outcome: topology
    fingerprint, collective (kind, root, peer), exact size, and the
    schedule-affecting config knobs (fast_only, deadline, search/epoch
    parameters).  [config.domains] is excluded — synthesis is
    deterministic in pool width.  Equal keys ⇒ identical outcomes, so
    batch execution dedupes on it. *)

val to_json : t -> Syccl_util.Json.t
(** Canonical encoding: fixed field order, defaults written explicitly. *)

val of_json : ?defaults:Syccl.Synthesizer.config -> Syccl_util.Json.t -> t
(** Parse one request (e.g. one [syccl batch] JSONL line).  Required
    fields: ["topology"], ["collective"], ["size"]; optional: ["fast"],
    ["domains"], ["deadline"], ["root"], ["peer"], ["faults"] (a canonical
    {!Syccl_topology.Fault.encode} string; falling back to
    [defaults], which itself defaults to
    {!Syccl.Synthesizer.default_config}).  Raises
    {!Syccl_util.Json.Parse_error} on malformed input and [Failure] on
    unknown topology/collective names. *)

val pp : Format.formatter -> t -> unit
