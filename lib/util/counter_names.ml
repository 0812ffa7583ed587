(* The registered-names table every Counters.bump/add/addf/observe literal
   must come from (check_lint rule 6).  A counter-name typo — registry.mis
   where a dashboard scrapes registry.miss.absent — is invisible to the
   type checker and silently splits a metric in two; keeping every static
   name here (and every dynamic family as a prefix) makes the lint catch it
   at build time, and doubles as the operator-facing inventory of what the
   process exposes.

   NOTE: check_lint parses this file textually — every string literal in it
   becomes a registered name (trailing-dot literals are prefixes) — so do
   not quote counter names in comments here. *)

(* Exact names, grouped by subsystem.  Keep sorted within each group. *)
let exact =
  [
    (* lib/util/pool *)
    "pool.queue_latency_s";
    "pool.steals";
    "pool.task_raised";
    "pool.tasks";
    (* lib/milp *)
    "lp.phase1_skipped";
    "lp.pivots_per_solve";
    "lp.reinvert_s";
    "lp.reinverts";
    "lp.warm_hits";
    "lp.warm_misses";
    "lp_dense.pivots_per_solve";
    "milp.flow_certified";
    "milp.nodes";
    "milp.nodes_per_solve";
    "milp.solve_s";
    "milp.solves";
    (* lib/core *)
    "cache.subsolve.hits";
    "cache.subsolve.misses";
    "subsolve.budget_skips";
    "subsolve.solve_s";
    "subsolve.widened";
    "synth.calls";
    "synth.combine_s";
    "synth.degraded";
    "synth.fallbacks";
    "synth.reroutes";
    "synth.rung_failures";
    "synth.search_s";
    "synth.solve1_s";
    "synth.solve2_s";
    "synth.total_s";
    (* lib/serve: registry *)
    "registry.hits";
    "registry.hit.scaled_cross";
    "registry.hit.transported";
    "registry.misses";
    "registry.miss.absent";
    "registry.miss.corrupt";
    "registry.miss.invalid";
    "registry.miss.slower";
    "registry.miss.transport_rejected";
    "registry.stores";
    (* lib/serve: failover *)
    "failover.skipped_demand";
    (* lib/serve: audit *)
    "audit.records";
    "audit.write_errors";
    "audit.synth_time_s";
    "audit.time_s";
    "registry.store_errors";
    "serve.requests";
    "serve.lowered";
    "serve.lower_failures";
    "serve.rung.full";
    "serve.rung.fast";
    "serve.rung.rerouted";
    "serve.rung.fallback";
  ]

(* Dynamic families: names built at run time from a registered stem
   (bounded caches, armed fault points, per-reason registry misses).  A
   used name is legal when it extends one of these prefixes. *)
let prefixes = [ "cache."; "fault."; "registry.miss."; "test." ]

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let mem name =
  List.mem name exact
  || List.exists (fun prefix -> starts_with ~prefix name) prefixes
