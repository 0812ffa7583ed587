(** Per-request audit trail: one JSONL record per served request element.

    A synthesis service is only operable when every answer it gives can be
    traced back: which registry entry (or why none), which degradation-
    ladder rung, how much of the budget it consumed, what the solver did.
    {!Syccl_serve.Serve.run_batch} emits one {!record} per request element
    through a sink, appended atomically (one [O_APPEND] write per line) to
    a JSONL file that by convention lives next to the registry
    ([<registry>/audit.jsonl]).  [syccl audit] tails, filters and
    aggregates the file; [syccl metrics --from-audit] replays it into
    {!Syccl_util.Counters} for offline Prometheus exposition.

    Auditing is fail-open: a write error is counted
    (["audit.write_errors"]) and dropped, never raised into serving. *)

type record = {
  ts : float;  (** {!Syccl_util.Clock.now} at emission *)
  key : string;  (** {!Request.key} of the element *)
  fingerprint : string;  (** topology structure identity (folds in faults) *)
  faults : string;
      (** canonical {!Syccl_topology.Fault.encode} string of the request's
          fault set ([""] when healthy) — the human-readable half of the
          (fingerprint × fault-class) provenance *)
  topology : string;  (** request topology name *)
  collective : string;  (** lowercase collective kind *)
  size : float;
  plan : string;
      (** how {!Serve} satisfied the request: ["synthesize"],
          ["registry-hit"], or ["registry-hit(VIA)"] for a rescaled,
          transported or cross-bucket hit *)
  probe : string;
      (** the registry's verdict: ["none"] (no registry), ["hit"],
          ["hit.VIA"], or ["miss.REASON"] with a
          {!Registry.miss_reason_name} *)
  hit_key : string option;  (** registry entry key, on a hit *)
  rung : string;
      (** degradation-ladder rung:
          ["full"|"fast"|"rerouted"|"fallback"] *)
  degrade_reason : string option;
  budget_s : float option;  (** deadline granted to the request *)
  consumed_s : float;  (** synthesis wall time actually spent *)
  time_s : float;  (** α-β simulated schedule cost, seconds *)
  busbw : float;  (** bus bandwidth, GB/s *)
  stored : bool;
      (** the result was persisted into the registry (a store that failed
          is [false]) *)
  cache_hits : int;  (** solver counter deltas, from the outcome breakdown *)
  cache_misses : int;
  milp_solves : int;
  milp_nodes : int;
  flow_certified : int;
  lowered : bool;
      (** an executor-level lowering check ({!Syccl_sim.Msccl_interp}) ran
          over the served schedules *)
  lower_check : string option;
      (** ["ok"], or the first lowering divergence found *)
}

val record_to_json : record -> Syccl_util.Json.t
(** Canonical encoding: fixed field order, so identical records re-encode
    byte-identically. *)

val record_of_json : Syccl_util.Json.t -> record
(** Inverse of {!record_to_json}; raises [Syccl_util.Json.Parse_error] on
    malformed records, any missing field, or an unsupported schema
    version. *)

(** {1 Sink} *)

type t

val open_file : string -> t
(** A sink appending to the given path (created on first write). *)

val for_registry : Registry.t -> t
(** The conventional sink for a registry: [<registry dir>/audit.jsonl]. *)

val path : t -> string

val append : t -> record -> unit
(** Append one record as a single [O_APPEND] write (atomic line-wise on
    local filesystems, so concurrent writers interleave whole records).
    Never raises: failures bump ["audit.write_errors"] and are dropped;
    successes bump ["audit.records"]. *)

(** {1 Reading and replay} *)

val read : string -> record list * int
(** Parse an audit JSONL file: the well-formed records in file order, and
    the count of unparseable lines (torn writes, foreign garbage — an
    audit reader must survive a dirty file). *)

val replay_counters : record -> unit
(** Re-apply the serving-side counters this record implies
    (["serve.requests"], the ["registry.*"] hit/miss family,
    ["serve.rung.*"], solver deltas, and the ["audit.*_s"] histograms) so
    a collected trail can be re-exposed via
    {!Syccl_util.Counters.to_prometheus} after the serving process is
    gone.  Solver-internal histograms (pivots, pool queues) are not
    reconstructible and stay empty. *)
