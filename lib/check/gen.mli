(** Seeded random generators for the fuzzing subsystem.

    All generators take an explicit {!Syccl_util.Xrand.t}; a (seed, case)
    pair replays the exact same inputs, so counterexamples are reproducible
    by construction. *)

val link : ?zero_alpha:bool -> Syccl_util.Xrand.t -> Syccl_topology.Link.t
(** Log-uniform bandwidth over two decades; zero latency a third of the
    time (always, with [zero_alpha]), else log-uniform around 1e-7 s. *)

val topology : ?zero_alpha:bool -> Syccl_util.Xrand.t -> Syccl_topology.Topology.t
(** One of: single switch (2–8 GPUs), two/three-level Clos, multi-rail
    with optional spine, wide single switch.  At most 12 GPUs. *)

val reshape :
  ?zero_alpha:bool -> Syccl_util.Xrand.t -> Syccl_topology.Topology.t ->
  Syccl_topology.Topology.t option
(** A {!topology} of the same family name, GPU count and dimension count
    in another shape (fuzz-clos levels reversed, fuzz-rail servers and
    GPUs per server swapped), with fresh links; [None] for single-switch
    families and shapes that read the same reversed. *)

val all_kinds : Syccl_collective.Collective.kind array

val size : Syccl_util.Xrand.t -> float
(** Boundary-heavy byte sizes: exact powers of two, their float
    neighbours, sub-1.0 fractions, and a broad log-uniform band. *)

val collective :
  ?kinds:Syccl_collective.Collective.kind array ->
  Syccl_util.Xrand.t -> n:int -> Syccl_collective.Collective.t
(** Random kind (from [kinds]), random root, distinct random peer for
    SendRecv, {!size}-distributed size. *)

val schedules :
  Syccl_util.Xrand.t -> Syccl_topology.Topology.t ->
  Syccl_collective.Collective.t -> Syccl_sim.Schedule.t list
(** A valid schedule set (one per phase) from the self-validating baseline
    generators ({!Syccl_baselines.Fallback} mostly,
    {!Syccl_baselines.Nccl} a quarter of the time). *)

type mutation =
  | Drop  (** remove one transfer *)
  | Duplicate  (** repeat one transfer *)
  | Reprioritize  (** random colliding/negative priorities everywhere *)
  | Crosswire  (** retarget one endpoint to a same-(dim, group) peer *)
  | Inflate  (** add a non-contributor to a reduce chunk's [initial] *)

val mutation_name : mutation -> string
val mutations : mutation array
val mutation : Syccl_util.Xrand.t -> mutation

val mutate :
  Syccl_util.Xrand.t -> Syccl_topology.Topology.t -> mutation ->
  Syccl_sim.Schedule.t -> Syccl_sim.Schedule.t option
(** Apply a mutation to one schedule; [None] when it does not apply (no
    transfers to drop, no reduce chunk to inflate, ...).  Mutants stay
    inside {!Syccl_sim.Validate.check_structure}'s vocabulary so the
    deeper causality and coverage checks are the ones under test. *)

val lp : Syccl_util.Xrand.t -> Syccl_milp.Lp.problem
(** Small LPs with integer/half-integer coefficients (exact float
    arithmetic, deliberate degeneracy) for differential testing of the
    revised simplex against the retired dense tableau. *)

val milp :
  Syccl_util.Xrand.t -> Syccl_milp.Lp.problem * (float * float * bool) array
(** Small bounded MILPs for differential testing of branch-and-bound over
    both LP engines: an objective and at most 5 Le/Ge/Eq rows in {!lp}'s
    vocabulary over at most 6 variables, each with its [(lb, ub,
    integer)]: lb an integer in [\[0, 2\]], ub at most 4.5 above it. *)
