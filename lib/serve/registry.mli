(** Persistent on-disk schedule registry, sharded for fleet scale.

    Synthesized schedules are reusable artifacts: any job that shares
    (topology structure, collective, size bucket) can replay one instead
    of re-synthesizing.  The registry is a directory of JSON entries,
    content-addressed by
    {!Syccl_topology.Topology.fingerprint} × collective (kind, root, peer)
    × power-of-two size bucket × {!Syccl_sim.Schedule.schema_version}.

    {b Layout (v2).}  Entries live under 256 shard directories named by
    the first two hex characters of the entry key (git-object style), so
    concurrent writers from many pool tasks and processes spread their
    atomic renames across directories instead of contending on one.  A
    [MANIFEST.json] at the root records the layout and schema versions;
    v2 is the only layout there is, and {!open_dir} refuses any other.

    Safety properties:
    - {e writes are atomic}: entries are written to a temp file inside
      their shard directory and renamed into place, so concurrent writers
      (two pool tasks storing the same key, two processes) each leave a
      complete, valid entry — last rename wins;
    - {e loads are corruption-tolerant}: an unreadable, truncated,
      malformed or wrong-schema entry, or one whose own demand does not
      hash to the key it is stored under, is a counted miss
      (["registry.miss.corrupt"]), never an error;
    - {e one admission judges every stored schedule}: every hit — exact,
      rescaled, transported or cross-bucket — every entry [registry
      verify] checks, and every schedule {!Failover.warm} transports to an
      orbit member passes {!admit}: rescaled to the request's size,
      validated with {!Syccl_sim.Validate.validate} and simulated against
      the live α-β model.  An entry that fails validation
      (["registry.miss.invalid"]) or, served at its stored size,
      simulates slower than its stored cost (["registry.miss.slower"]) is
      demoted to a miss, so a stale entry can never beat a fresh solve
      silently.  A probe's verdict is memoized in the process against the
      exact bytes it was judged from (see {!probe}); nothing on disk is
      trusted.

    {b Near-miss serving.}  When the exact key is absent, the probe
    exploits the paper's symmetry machinery at serving time: entries for
    the same (fingerprint, kind, bucket) at a {e symmetric} (root, peer)
    are transported through {!Syccl_sim.Transport.schedules} along an
    element of {!Syccl_topology.Topology.stabilizer} (validity and cost
    preserved — the automorphism-transport fuzz law), and same-demand
    entries one bucket away are rescaled with
    {!Syccl_sim.Schedule.scale}.  Every candidate is admitted, and must
    beat the precomputed fallback ladder
    ({!Syccl_baselines.Fallback.schedule}) before it may serve; the
    fastest survivor wins and its {e source} entry key is reported as
    [hit_key].

    Activity is published through {!Syccl_util.Counters} as
    ["registry.hits"] (plus ["registry.hit.transported"] /
    ["registry.hit.scaled_cross"] for near-miss hits),
    ["registry.stores"], the per-reason miss family
    ["registry.miss.absent"|"corrupt"|"invalid"|"slower"|
    "transport_rejected"], and their aggregate ["registry.misses"]. *)

type t

val open_dir : string -> t
(** Open (creating it, missing parents, and the manifest if needed) a
    registry rooted at the given directory.  Raises
    [Sys_error]/[Unix.Unix_error] when the directory cannot be created at
    all, and [Failure] (a one-line message naming both versions) when the
    on-disk manifest declares any layout other than {!layout_version}. *)

val dir : t -> string

(** {1 Layout} *)

val layout_version : int
(** The directory layout this build reads and writes (2: sharded). *)

val shard_of_key : string -> string
(** The shard directory (relative to {!dir}) an entry key lives in: its
    first two hex characters. *)

val manifest : t -> (int, string) result
(** The layout version recorded in the on-disk [MANIFEST.json], or the
    reason it could not be read. *)

(** {1 Addressing} *)

val key : Syccl_topology.Topology.t -> Syccl_collective.Collective.t -> string
(** The content address: hex digest over (topology fingerprint, collective
    kind/root/peer, size bucket, schedule schema version).  The fingerprint
    folds in the topology's fault class
    ({!Syccl_topology.Topology.puncture}), so a degraded topology's entries
    are keyed apart from the healthy topology's — one store, one namespace
    per (structure × fault-class). *)

val key_of :
  fingerprint:string -> kind:string -> root:int -> peer:int -> bucket:int ->
  string
(** {!key} from its raw components — how the near-miss probe addresses
    sibling entries (a symmetric root, an adjacent bucket) without a
    collective in hand. *)

val size_bucket : float -> int
(** The power-of-two bucket the key quantizes size into:
    [floor (log2 size)], computed exactly via [Float.frexp] (so an exact
    power of two 2{^k} is bucket [k] and [Float.pred 2.0] is bucket 0, with
    no rounding nudge).  Sub-1.0 sizes land in negative buckets;
    non-positive or NaN sizes (impossible through
    {!Syccl_collective.Collective.make}) get [min_int], colliding with no
    real size. *)

(** {1 Serving} *)

type via =
  | Exact  (** entry stored for this exact demand and size *)
  | Rescaled  (** rescaled from a different size in the same bucket *)
  | Transported
      (** transported from a symmetric (root, peer) entry along a
          stabilizer automorphism *)
  | Scaled_cross  (** rescaled from an adjacent size bucket *)

val via_name : via -> string
(** ["exact"], ["scaled"], ["transported"], ["scaled_cross"]. *)

type hit = {
  schedules : Syccl_sim.Schedule.t list;  (** one per collective phase *)
  time : float;  (** freshly re-simulated cost, seconds *)
  stored_cost : float;  (** cost recorded when the entry was stored *)
  stored_blocks : int;  (** simulator fidelity [stored_cost] was computed at *)
  chosen : string;  (** winning-combination description, as stored *)
  via : via;  (** how the entry reached the request's demand *)
  hit_key : string;
      (** the {e source} entry key — for transported and cross-bucket hits
          this is the entry the schedules came from, not the request's own
          key, so audit trails carry reuse provenance *)
}

type miss_reason =
  | Absent  (** no entry file under the key and nothing to transport *)
  | Corrupt
      (** unreadable, malformed or wrong-schema entry, or one stored under
          another demand's key *)
  | Invalid  (** parsed, but failed {!Syccl_sim.Validate.validate} *)
  | Slower  (** valid, but re-simulates slower than its stored cost *)
  | Transport_rejected
      (** symmetric or adjacent-bucket candidates existed, but every one
          was rejected by transport, re-validation, or the fallback-ladder
          guard *)

val miss_reason_name : miss_reason -> string
(** ["absent"], ["corrupt"], ["invalid"], ["slower"],
    ["transport_rejected"] — the suffixes of the ["registry.miss.*"]
    counters and the audit-trail probe field. *)

type probe_result = Hit of hit | Miss of miss_reason

val probe :
  t -> ?blocks:int -> Syccl_topology.Topology.t ->
  Syccl_collective.Collective.t -> probe_result
(** Probe, verify, and classify.  The exact key is tried first; on an
    absent exact entry the near-miss pass searches symmetric and
    adjacent-bucket candidates (see the module preamble).  A miss carries
    {e why} it missed, so the serving layer can audit cold misses
    separately from store corruption and from rejected transports.
    [blocks] is the simulator fidelity used for the hit's re-simulated
    [time] (default 8, matching {!Syccl.Synthesizer.default_config}).
    The slower-than-stored demotion always compares at the entry's
    {e store-time} fidelity ([stored_blocks]), so probing an entry at a
    different [blocks] can neither spuriously demote it nor spuriously
    serve it.

    {b Observe, then judge.}  A probe first reads every file its verdict
    depends on, each exactly once: the exact entry and, only when that is
    absent, the near-miss sources (transport sources, then the two
    adjacent buckets).  Each read passes the ["registry.crash"] fault
    point after the existence check.  It then judges those bytes — parse
    and key self-check, transport, {!admit}, slower check, fallback guard
    — without touching the disk again.

    {b Memo.}  The verdict is memoized in the process (the
    {!Syccl_util.Cache} ["cache.probe"], bounded by the bytes it retains)
    under (registry directory, topology fingerprint, collective, [blocks]),
    together with what was read.  A later probe of the same key re-reads
    the same paths; when every file is byte-for-byte unchanged (or still
    absent, or still unreadable) it replays the verdict instead of judging
    again, and bumps exactly the ["registry.*"] counters a fresh probe
    would.  Any difference — a rewritten, truncated, deleted, newly
    present or unreadable file — judges the new bytes and replaces the
    memo entry (["cache.probe.stale"]).  A judge that raises (the
    ["sim.crash"] fault point) makes the probe a [Miss Invalid] and
    memoizes nothing, so the entry is judged again on the next probe.

    {e Safety.}  The verdict is a deterministic function of four inputs:
    the bytes of each file read (or its absence); the topology, through
    its fingerprint (equal fingerprints are interchangeable:
    {!Syccl_topology.Topology.fingerprint}); the collective; and
    [blocks].  {!Syccl_sim.Validate}, {!Syccl_sim.Sim},
    {!Syccl_sim.Transport}, {!Syccl_topology.Topology.stabilizer} and
    {!Syccl_baselines.Fallback.schedule} keep no state between calls.  So
    a replayed verdict equals the one a fresh probe would return.  Every
    served hit carries its own chunk arrays, so no caller can alter a
    memoized schedule. *)

val reset_memo : unit -> unit
(** Forget every memoized probe verdict, so the next probe of each key
    parses, validates and simulates in full.  For benchmarks that time a
    cold probe; serving never needs it, because a memoized verdict is
    replayed only while the files it was judged from are unchanged. *)

val lookup :
  t -> ?blocks:int -> Syccl_topology.Topology.t ->
  Syccl_collective.Collective.t -> hit option
(** [probe] with the miss reason erased: [None] covers absent, corrupt,
    invalid, cost-regressed and transport-rejected entries (each
    separately counted). *)

val store :
  t -> Syccl_topology.Topology.t -> Syccl_collective.Collective.t ->
  ?blocks:int -> cost:float -> chosen:string -> Syccl_sim.Schedule.t list ->
  unit
(** Atomically persist a schedule set under the collective's key in its
    shard, replacing any previous entry.  [blocks] (default 8) must be the
    simulator fidelity [cost] was computed at; it is persisted so later
    lookups compare like-for-like.  Callers are expected to store only
    full-quality (non-degraded, non-fast-only) outcomes — the registry
    does not second-guess that policy, it only verifies on the way out. *)

val admit :
  blocks:int -> Syccl_topology.Topology.t -> Syccl_collective.Collective.t ->
  size:float -> Syccl_sim.Schedule.t list ->
  (Syccl_sim.Schedule.t list * float, string) result
(** The one admission of a stored or transported schedule: [admit ~blocks
    topo coll ~size schedules] rescales [schedules], made for [size]
    bytes, to [coll]'s size, validates them on [topo] with
    {!Syccl_sim.Validate.validate} (a validator that raises fails them)
    and re-simulates them at [blocks].  [Ok (schedules, time)] carries
    the rescaled schedules and their simulated time; [Error] the
    validation error.  {!probe}, {!verify_entry} and
    {!Failover.warm} judge every schedule they did not synthesize
    through it. *)

val length : t -> int
(** Number of entry keys currently present (corrupt ones included). *)

(** {1 Introspection}

    Read-only views over the on-disk store for [syccl registry
    stats|ls|inspect|verify].  Nothing here ever writes, renames or
    deletes an entry — a verify pass over a damaged store must leave the
    evidence in place. *)

type meta = {
  m_key : string;  (** entry key (file name without [.json]) *)
  m_fingerprint : string;
  m_faults : string;
      (** canonical {!Syccl_topology.Fault.encode} string of the fault set
          the entry was synthesized under ([""] for healthy topologies) *)
  m_kind : string;  (** collective kind, as stored *)
  m_root : int;
  m_peer : int;
  m_size : float;  (** exact size the entry was synthesized for *)
  m_cost : float;  (** stored simulated cost, seconds *)
  m_blocks : int;  (** simulator fidelity of [m_cost] *)
  m_chosen : string;
  m_schema : int;
  m_bytes : int;  (** entry file size in bytes *)
}

val keys : t -> string list
(** All entry keys currently on disk, sorted.  Raises [Sys_error] when an
    existing shard directory cannot be read — an operator problem the
    caller must see, not an empty shard. *)

val load :
  t -> string -> (meta * Syccl_sim.Schedule.t list, string) result
(** Read and parse one entry by key {e without} validating its schedules
    against any topology, the way {!probe} reads it (through the
    ["registry.crash"] fault point).  [Error] is the corruption message:
    unreadable, malformed or wrong-schema, or stored under a key its own
    demand does not hash to.  Does not touch any counter — introspection
    must not pollute serving metrics. *)

type admitted = {
  meta : meta;
  topo : Syccl_topology.Topology.t;  (** the topology it was judged on *)
  coll : Syccl_collective.Collective.t;  (** the demand it was judged for *)
  schedules : Syccl_sim.Schedule.t list;  (** as admitted *)
  simulated : float;  (** re-simulated cost, seconds *)
}
(** An entry that passed {!admit}. *)

type verdict =
  | Entry_ok of admitted
      (** admitted, and re-simulated no slower than stored (at store-time
          fidelity) *)
  | Entry_unverified of meta
      (** parses cleanly, but no topology matching its fingerprint was
          supplied, so validation/simulation could not run *)
  | Entry_corrupt of string
  | Entry_invalid of { meta : meta; error : string }
  | Entry_slower of admitted
      (** admitted, but re-simulates slower than its stored cost *)

val entry_topology :
  Syccl_topology.Topology.t -> meta ->
  (Syccl_topology.Topology.t option, string) result
(** The topology an entry's schedules run on, given the topology it was
    requested for: [topo] itself when the fingerprints match, else [topo]
    punctured by the entry's recorded fault set ([m_faults]) when that
    reproduces the stored fingerprint, else [None].  [Error] when the
    recorded fault set does not decode: the entry is corrupt. *)

val verify_entry :
  t -> ?topo:Syccl_topology.Topology.t -> string -> verdict
(** Re-verify one entry by key, judging it as {!probe} judges its own
    demand at its stored size and fidelity: load (corruption, schema
    drift and a wrong key are detectable standalone), and — when [topo]
    reaches the entry's fingerprint ({!entry_topology}) — {!admit} it at
    the stored fidelity and compare with the stored cost.  So a cold probe
    at the stored [blocks], on that topology, of the demand at the size
    the entry records hits when this says [Entry_ok], and misses as
    corrupt, invalid or slower when this says so.  Never mutates the store
    and never touches the serving counters. *)

(** {1 Maintenance}

    The explicitly-invoked offline passes ([syccl registry compact]) and
    test teardown.  These are the only operations that delete. *)

type compact_stats = {
  corrupt_removed : int;  (** unparseable entries deleted *)
  dominated_removed : int;
      (** entries deleted because a cheaper same-class entry serves their
          demand via transport (healthy rooted collectives only) *)
  evicted : int;  (** entries deleted by LRU to meet the size limits *)
  kept : int;  (** entries remaining *)
  kept_bytes : int;  (** bytes remaining *)
}

val compact :
  t -> ?max_entries:int -> ?max_bytes:int ->
  ?last_used:(string -> float option) -> unit -> compact_stats
(** Offline compaction: delete corrupt entries, prune dominated entries (same healthy
    (fingerprint, kind, bucket, size, fidelity) class, differing only in
    root — the transport probe serves them from the cheapest survivor),
    then evict least-recently-used entries until [max_entries] /
    [max_bytes] are met.  [last_used] maps an entry key to its last hit
    timestamp (callers feed it from the audit trail); entries it does not
    know fall back to file mtime. *)

val remove_entry : t -> string -> bool
(** Delete one entry by key.  [false] when no file existed.  Maintenance
    only — serving never deletes. *)

val destroy : t -> unit
(** Recursively delete the registry directory — entries, shards, manifest
    and temp files.  Test/teardown helper; best-effort, never raises. *)
