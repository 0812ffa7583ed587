(** Request → outcome: the one serving pipeline every front-end shares,
    and the one place that decides and records how a request was
    satisfied.

    [run] (and [run_batch]) drive the full request lifecycle:

    {v request → registry probe (verify) → serve the hit | synthesize → outcome v}

    The registry is probed ({!Registry.probe}) before any solver runs,
    and its verdict stays on the outcome ([probe]).  A verified hit is
    served as is.  Anything else runs the {!Syccl.Synthesizer}
    degradation ladder — budget, persistent pool, trace spans and crash
    isolation attach there, once, for every caller.  Full-quality
    synthesis results (ladder rung [Full], MILP refinement not disabled)
    are stored back into the registry, so repeated workloads converge to
    all-hits; the outcome records whether that store persisted
    ([stored]).

    Batch execution dedupes requests on {!Request.key} and runs the
    remaining synthesis work through
    {!Syccl.Synthesizer.synthesize_all}: every element is a standalone
    synthesis (the same outcome for any pool width and any batch it
    arrives in), with per-element fault isolation (a crashing request
    degrades to the fallback baseline, its siblings keep going). *)

type source =
  | From_registry of {
      hit_key : string;
          (** the {e source} entry key — for transported / cross-bucket
              hits, the entry the schedules were derived from *)
      via : Registry.via;
          (** how the entry reached this request's demand (exact,
              in-bucket rescale, symmetry transport, adjacent-bucket
              rescale) *)
      stored_cost : float;
    }
  | From_synthesis

type outcome = {
  request : Request.t;
  source : source;
  probe : Registry.probe_result option;
      (** the registry's verdict for this request, miss reason included;
          [None] when served without a registry *)
  synth : Syccl.Synthesizer.outcome;
      (** the underlying outcome; for registry hits, [time]/[busbw] are
          freshly re-simulated, [synth_time] is 0, and [breakdown] is
          {!Syccl.Synthesizer.zero_breakdown} *)
  stored : bool;
      (** the result was persisted into the registry: [false] for hits,
          for results the store policy keeps out (degraded rungs,
          fast-only), and for stores that failed *)
  lower : (unit, string) result option;
      (** verdict of the [lower] hook over the schedules {e as served}
          (registry hits and degraded rungs included); [None] when the
          caller passed no hook *)
}

val run :
  ?registry:Registry.t ->
  ?audit:Audit.t ->
  ?lower:(Request.t -> Syccl.Synthesizer.outcome -> (unit, string) result) ->
  Request.t ->
  outcome
(** Probe and execute one request. *)

val run_batch :
  ?registry:Registry.t ->
  ?audit:Audit.t ->
  ?lower:(Request.t -> Syccl.Synthesizer.outcome -> (unit, string) result) ->
  Request.t list ->
  outcome list
(** Probe and execute a batch, preserving order.  Duplicate requests
    (equal {!Request.key}) are executed once and their outcome shared;
    distinct requests sharing a topology structure and config are
    synthesized concurrently on the persistent pool.

    When [audit] is given, one {!Audit.record} is appended per request
    {e element} (duplicates each leave their own line, sharing the
    executed outcome's numbers), carrying how it was served, the registry
    probe outcome with its miss reason, the ladder rung, budget granted
    vs consumed, whether the result was stored, and the solver counter
    deltas from the outcome breakdown.

    When [lower] is given, it is invoked once per {e unique} request on
    the outcome actually served — the resolved schedules, whether they
    came from the registry, a degraded ladder rung, or fresh synthesis —
    and its verdict is recorded in the outcome ([lower]) and the audit
    trail ([lowered]/[lower_check]).  A hook that raises is recorded as a
    failed check; it never fails serving. *)

val store : Registry.t -> Request.t -> Syccl.Synthesizer.outcome -> bool
(** The registry write policy, fail-open: persist the outcome under the
    request's topology and collective, at its simulated time and the
    config's [blocks], only when the registry may later serve it in place
    of a full solve (ladder rung [Full], MILP refinement not disabled, at
    least one schedule).  A store that raises (full disk, the
    ["registry.crash"] fault point) is counted on
    ["registry.store_errors"] and costs the store, never the caller.
    Returns whether the outcome was persisted. *)

val registry_counts : outcome -> int * int
(** [(hits, misses)] the registry contributed: [(1, 0)] for a hit,
    [(0, 1)] for a probed miss, [(0, 0)] without a registry — the
    [registry_hits]/[registry_misses] fields of {!outcome_to_json} and of
    [syccl synth --stats-json]. *)

val outcome_to_json : outcome -> Syccl_util.Json.t
(** Canonical outcome encoding (one [syccl batch] JSONL line): fixed
    field order; [synth_time_s] is the only timing field — everything
    else is deterministic for a deterministic request. *)
