(** Map-only domain pool on one process-wide worker set.

    Every parallel region in SyCCL is an index-parallel map: the
    isomorphism classes of a phase (§5.3), the candidates of a screening
    step, a MILP node wave, the elements of a sweep.  So {!map} is the
    only primitive.  All widths share one set of worker domains, grown on
    demand by {!get} and joined at process exit; a process that used
    widths 2, 3, 4 and 8 keeps [min 8 hw - 1] workers ([hw] = the
    hardware's domain count), never one set per width.

    A map publishes its elements as one job on a shared list.  Elements
    are claimed one at a time with an atomic fetch-and-add, by the
    calling domain and by at most [width - 1] other domains, so a width
    bounds the parallelism of the call that holds it.  The caller runs
    elements until none is left to claim, then helps other open jobs
    until its own in-flight elements finish, so nested maps (a sweep
    element's class map, a class's MILP node waves) cannot deadlock.

    Determinism: results are written by index, so what a map returns —
    and which exception {!map} raises — does not depend on the width or
    on which domain ran which element.

    Crash isolation: every element runs inside the ["pool.crash"]
    {!Faultpoint} probe at every width, one-element maps included.  An
    exception an element raises is confined to that element, counted in
    ["pool.task_raised"] and recorded as a ["pool.task_raised"] trace
    instant with its backtrace.  A width-1 map adds only that probe to
    [Array.map]: no lock, no trace span, no queue-latency sample.  Wider
    maps trace each element as a ["pool.task"] span, sample the time from
    publication to claim in the ["pool.queue_latency_s"] histogram, and
    add their element count to ["pool.tasks"]. *)

type t
(** A width: how many domains one map may use, its caller included. *)

val get : int -> t
(** [get d] is width [d], clamped to [1..32] (and to 1 on a single-core
    host).  It first grows the shared worker set to [min d hw - 1]
    domains: domains beyond the hardware add no throughput but tax every
    minor GC with a larger stop-the-world barrier. *)

val map_result : t -> ('a -> 'b) -> 'a array -> ('b, exn) result array
(** Order-preserving map that runs every element and returns, in each
    position, the element's value or the exception it raised. *)

val map : t -> ('a -> 'b) -> 'a array -> 'b array
(** {!map_result}, raising the exception of the lowest failing index —
    the one [Array.map] would raise.  Every element still runs. *)
