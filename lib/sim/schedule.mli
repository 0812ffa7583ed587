(** Schedule intermediate representation.

    A schedule is a set of transfers over a topology: each transfer moves one
    chunk between two GPUs of one dimension's group.  Ordering is implicit —
    a transfer may start once its source holds the chunk and the contended
    ports are free — with [prio] available for breaking ties the way the
    synthesizer intended.  This mirrors the event model of the paper's
    simulator (§5.2). *)

type xfer = {
  chunk : int;
  src : int;
  dst : int;
  dim : int;  (** topology dimension the transfer uses *)
  prio : int;  (** tie-break priority; lower goes first *)
}

(** Chunk semantics: gather-style chunks flow from initial holders outward (a
    GPU holds the chunk after receiving any copy); reduce-style chunks flow
    inward (a GPU may forward only after receiving from {e all} its in-edges,
    combining as it goes).

    [tag] records which chunk of the original collective demand this schedule
    chunk carves from — chunk splitting (§4.2) turns one demand chunk into
    several schedule chunks with the same tag whose sizes sum to the demand
    chunk size. *)
type chunk_meta = {
  size : float;  (** bytes *)
  mode : [ `Gather | `Reduce ];
  initial : int list;
      (** gather: GPUs holding the chunk at time 0; reduce: GPUs with a
          contribution that must reach the destination *)
  wanted : int list;
      (** gather: GPUs that must end up holding the chunk; reduce: the single
          destination *)
  tag : int;
}

type t = { chunks : chunk_meta array; xfers : xfer list }

val empty : t

val union : t list -> t
(** Disjoint union: chunk ids of later schedules are shifted so they do not
    collide (tags are preserved). *)

val map_gpus : t -> (int -> int) -> t
(** Relabel GPUs through a mapping (used to map a solved representative
    schedule onto an isomorphic group, §5.3). *)

val reverse : t -> t
(** Time-reversal: turns a Broadcast/Scatter tree into the corresponding
    Reduce/Gather schedule and vice versa (§4.1).  Gather chunks become
    reduce chunks with [initial] and [wanted] swapped and every edge
    flipped. *)

val transpose : t -> t
(** {!reverse} with every chunk kept in copy ([`Gather]) mode — the mirror
    for {e non-reducing} demands.  A Gather collective is the data-flow
    reverse of a Scatter, but its chunks are concatenated, not combined, so
    the reduce-mode flip {!reverse} performs must be undone. *)

val drop_redundant : t -> t
(** Drop, from every gather-mode chunk, each transfer into a GPU that
    already holds the chunk (transfers fire in causal order, earliest
    priority first), then each relay transfer into a GPU that neither
    wants the chunk nor forwards it.  Each GPU then receives a chunk at
    most once and every relay leads to a GPU that wants it, which is what
    the {!reverse} and {!transpose} mirrors need to send each chunk at
    most once per GPU.  Every wanted delivery is kept, and a schedule
    with neither kind of transfer is returned unchanged. *)

val scale : t -> float -> t
(** Multiply every chunk size by a fraction (chunk splitting, §4.2). *)

val num_xfers : t -> int

val schema_version : int
(** Version stamped into {!to_json} output.  Bumped on incompatible layout
    changes; {!of_json} rejects any other version, and a missing one. *)

val to_json : t -> Syccl_util.Json.t
val of_json : Syccl_util.Json.t -> t
(** Lossless persistence; [of_json] raises {!Syccl_util.Json.Parse_error} on
    malformed or incomplete documents, including one without a
    [schema_version] field, and on a [schema_version] that does not match
    this build's {!schema_version}. *)

val pp : Format.formatter -> t -> unit
