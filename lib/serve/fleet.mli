(** Fleet-scale registry warming ([syccl warm --fleet]).

    Pre-populates the registry with one {e anchor} entry per (topology
    family, collective, size bucket): root 0, one exact size per bucket of
    the grid.  That is all the symmetry-aware registry probe needs — a
    production request at any other root is served by transporting the
    anchor along a stabilizer rotation ({!Registry.Transported}), and a
    request in an adjacent bucket by rescaling it
    ({!Registry.Scaled_cross}) — so a cold family reaches hit-rate
    saturation at anchor cost, not (roots × sizes) grid cost.  The bench
    gate ([syccl-bench fleet] / [report --check]) asserts ≥90% of a cold
    family's production grid is served from transported + cross-bucket
    entries after warming the smoke grid. *)

val default_families : string list
(** Every named {!Syccl_topology.Builders} family the request parser
    knows, cheapest first (h800-512 last, so an interrupted warm has
    finished the rest). *)

val smoke_families : string list
(** Small multirail instances cheap enough for the bench gate under
    [dune runtest]. *)

val default_collectives : string list
(** All collectives except SendRecv (whose (root, peer) pair grid is not
    covered by a single anchor). *)

val default_anchors : float list
(** One anchor size per power-of-two bucket across the serving sweet
    spot: 64 KiB, 1 MiB, 16 MiB. *)

val smoke_anchors : float list
(** Two buckets (16 and 18), leaving odd buckets empty so the production
    grid exercises cross-bucket serving. *)

val cross_size : float -> float
(** The adjacent-bucket production size for an anchor: 2.25× lands
    exactly one bucket up, so the anchor is always the lower neighbour. *)

type family = {
  family : string;
  anchors : int;  (** anchor requests issued (collectives × sizes) *)
  stored : int;  (** anchors synthesized and persisted *)
  already_hit : int;  (** anchors the registry already served *)
  failed : int;
      (** anchors synthesized but not persisted: degraded, fast-only, or
          the store failed *)
}

type stats = {
  families : family list;
  anchors : int;
  stored : int;
  already_hit : int;
  failed : int;
}

val warm :
  registry:Registry.t ->
  ?audit:Audit.t ->
  ?config:Syccl.Synthesizer.config ->
  ?families:string list ->
  ?collectives:string list ->
  ?anchors:float list ->
  unit ->
  stats
(** Serve (and thereby store) every anchor of the grid through the
    ordinary {!Serve.run_batch} pipeline — full ladder, crash isolation,
    audit records, Full-only store policy.  Idempotent: re-warming counts
    existing anchors as [already_hit]. *)

val production_grid :
  ?config:Syccl.Synthesizer.config ->
  family:string ->
  collectives:string list ->
  anchors:float list ->
  unit ->
  Request.t list
(** The cold-production request grid for one family: every non-zero root
    at each anchor size for rooted collectives (transported hits) plus
    one adjacent-bucket size per anchor for every collective
    (cross-bucket hits).  None of it shares an anchor's exact key; after
    {!warm}, all of it should be served by the near-miss probe — this is
    the grid the bench hit-rate gate measures. *)
