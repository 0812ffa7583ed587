(** Bounded, domain-safe cache with approximate-LRU eviction.

    All operations are mutex-protected, so the cache can back memoization
    on paths that run concurrently (parallel sweeps, pooled solves).
    Capacity bounds the total weight of the entries: every entry weighs 1
    unless the cache was created with a [weight] function (a cache of
    file contents weighs them in bytes).  It is enforced by
    batch-evicting least-recently-used entries, when exceeded, until at
    most half the capacity remains.  Hits, misses and evictions are
    published through {!Counters} as ["<name>.hits"], ["<name>.misses"],
    ["<name>.evictions"], and lookup-latency distributions as the
    ["<name>.hit_s"] / ["<name>.miss_s"] histograms. *)

type ('k, 'v) t

val create :
  ?capacity:int -> ?weight:('v -> int) -> name:string -> unit -> ('k, 'v) t
(** [create ~capacity ~weight ~name ()] — capacity (a total weight)
    defaults to 1024 and floors at 8; [weight] defaults to 1 per entry,
    so the capacity is then an entry count.  A value's weight is taken
    once, when it is put. *)

val find_opt : ('k, 'v) t -> 'k -> 'v option
(** Lookup; refreshes recency and counts a hit or miss. *)

val put : ('k, 'v) t -> 'k -> 'v -> unit
(** Insert/replace, evicting least-recently-used entries (never the one
    just put) down to half the capacity if the total weight outgrew it.
    A value heavier than the whole capacity is not kept: [put] then only
    drops the key's previous value. *)

val length : ('k, 'v) t -> int
val clear : ('k, 'v) t -> unit
