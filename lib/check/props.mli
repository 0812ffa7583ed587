(** The property catalogue: metamorphic laws of the schedule IR and
    simulator, validator soundness against {!Refcheck}, registry
    invariants, and the differential synthesis oracle.

    Properties draw all inputs from the per-case RNG in {!ctx}, so a
    (seed, property, case) triple fully determines a run. *)

type verdict =
  | Pass
  | Skip of string  (** inputs drawn do not exercise the property *)
  | Fail of string  (** counterexample description, witness inline *)

type ctx = {
  rng : Syccl_util.Xrand.t;
  domains : int;  (** solver parallelism for the synthesis oracle *)
  shrink : bool;  (** greedily shrink counterexample schedules *)
}

type prop = {
  name : string;
  heavy : bool;
      (** multi-solve properties, given a fraction of the case budget *)
  check : ctx -> verdict;
}

val all : prop list
(** - [reverse-involution]: [reverse (reverse s) = s] structurally and in
      simulated cost, under colliding/negative priorities too;
    - [scale-linear]: on zero-latency links, scaling chunk sizes by a
      power of two scales simulated time exactly;
    - [union-dominates]: a shared-port union of valid schedules stays
      valid, and a union over disjoint isomorphic orbits (the §5.3 use)
      costs exactly the max of its parts.  (The naive "never finishes
      before either part" is false under port sharing: the simulator's
      greedy list scheduling admits Graham-style anomalies, which this
      fuzzer demonstrated.);
    - [automorphism-transport]: relabelling GPUs through a topology
      automorphism preserves validity and simulated cost;
    - [generators-agree]: baseline schedules satisfy validator, reference
      checker and simulator;
    - [mutant-soundness]: any mutant the validator accepts also satisfies
      the reference checker and simulator (duplicates must be rejected);
    - [reorder-benign]: transfer-list order never affects validity;
    - [registry-fidelity]: entries stored at one simulator fidelity
      survive probes at another, and report store-time fidelity;
    - [registry-memo]: under a random script of entry writes (stored at
      true cost, stored below the simulated time, truncated, deleted;
      the exact entry, the bucket above, a symmetric root), every probe —
      memoized or not — returns what a cold probe of the same files under
      a fresh registry root returns: same verdict, source key, stored
      cost and fidelity, bit-equal time, structurally equal schedules;
    - [size-bucket]: {!Syccl_serve.Registry.size_bucket} is the exact
      power-of-two floor;
    - [lp-differential]: the revised simplex {!Syccl_milp.Lp.solve}
      agrees with the retired dense tableau {!Lp_dense.solve} on random
      small LPs: same status, optimal objectives within 1e-6, and the
      revised optimum satisfies every row;
    - [milp-differential]: {!Syccl_milp.Milp.solve} over its default LP
      and over {!Lp_dense.relax} agree on random small bounded MILPs
      (at most 6 integer or continuous variables, 5 Le/Ge/Eq rows): same
      status, optimal objectives within 1e-6, and both points pass
      {!Syccl_milp.Milp.check_feasible};
    - [sim-differential]: {!Syccl_sim.Sim.run} agrees bit for bit with
      the retired event loop {!Sim_ref.run} (time, events, every transfer
      finish, or the same exception) on generator schedules and mutants at
      1, 2, 3, 8 and 16 blocks, and an early exit of
      {!Syccl_sim.Sim.phases_time} never overshoots the full time and
      fires only when the full time satisfies the same predicate;
    - [sim-port-bound]: simulated time is at least the busiest (GPU, port
      group, direction)'s β × bytes, computed without simulator code;
    - [lower-replay]: lowering any refcheck-valid schedule to MSCCL XML,
      parsing it back and replaying it under executor semantics
      ({!Syccl_sim.Msccl_interp}) completes without deadlock,
      use-before-receive or double-writes and lands the demanded data,
      at channels 1, 2 and 4;
    - [oracle]: the full synthesis pipeline validates and is never beaten
      beyond per-comparator screening tolerance by greedy-only synthesis,
      TECCL, NCCL or the fallback ladder on the same demand (TECCL's
      epoch MILP is near-exact at oracle scale, so it gets a looser
      bound than the screened baselines);
    - [synth-history]: synthesis is a function of the request — the
      oracle's request, synthesized fast-only without a deadline, gets a
      bit-equal time, the same winner and rung and structurally equal
      schedules again after {!Syccl.Synthesizer.reset_caches} and 1–3
      other requests (its kind at another size in its power-of-two
      bucket, another kind at its size, itself on a second generator
      topology of the same family name and GPU count — preferably of
      another shape: {!Gen.reshape}'s, else a drawn one);
    - [search-differential]: {!Syccl.Search.run} returns the sketch list
      of the retired search {!Search_ref.run}, structurally equal and in
      the same order, and the same truncation flag, on healthy and
      punctured generator topologies, both kinds, any root, and random
      configurations (each pruning on or off, relay limit none, 1 or 2,
      small emission caps and node budgets, sometimes an expired
      deadline); every returned sketch's {!Syccl.Sketch.signature} and
      {!Syccl.Sketch.structural_labels} (of the sketch and of a prefix of
      its stages) equal the reference's list-built values. *)

val names : string list
val find : string -> prop option
