module Topology = Syccl_topology.Topology
module Fault = Syccl_topology.Fault
module Collective = Syccl_collective.Collective
module Schedule = Syccl_sim.Schedule
module Sim = Syccl_sim.Sim
module Pool = Syccl_util.Pool
module Cache = Syccl_util.Cache
module Counters = Syccl_util.Counters
module Clock = Syccl_util.Clock
module Trace = Syccl_util.Trace
module Budget = Syccl_util.Budget

type config = {
  search_config : Search.config option;
  e2 : float;
  fast_only : bool;
  milp_node_limit : int;
  milp_time_limit : float;
  domains : int;
  blocks : int;
  deadline : float option;
}

let default_config =
  {
    search_config = None;
    e2 = 0.5;
    fast_only = false;
    milp_node_limit = 60;
    milp_time_limit = 6.0;
    domains = 1;
    blocks = 8;
    deadline = None;
  }

type level = Full | Fast | Rerouted | Fallback

let level_name = function
  | Full -> "full"
  | Fast -> "fast"
  | Rerouted -> "rerouted"
  | Fallback -> "fallback"

type breakdown = {
  search_s : float;
  combine_s : float;
  solve1_s : float;
  solve2_s : float;
  cache_hits : int;
  cache_misses : int;
  milp_solves : int;
  milp_nodes : int;
  flow_certified : int;
}

type outcome = {
  schedules : Schedule.t list;
  time : float;
  busbw : float;
  synth_time : float;
  breakdown : breakdown;
  num_sketches : int;
  num_combos : int;
  chosen : string;
  degraded : level;
  degrade_reason : string option;
}

let zero_breakdown =
  {
    search_s = 0.0;
    combine_s = 0.0;
    solve1_s = 0.0;
    solve2_s = 0.0;
    cache_hits = 0;
    cache_misses = 0;
    milp_solves = 0;
    milp_nodes = 0;
    flow_certified = 0;
  }

let add_breakdown a b =
  {
    search_s = a.search_s +. b.search_s;
    combine_s = a.combine_s +. b.combine_s;
    solve1_s = a.solve1_s +. b.solve1_s;
    solve2_s = a.solve2_s +. b.solve2_s;
    cache_hits = a.cache_hits + b.cache_hits;
    cache_misses = a.cache_misses + b.cache_misses;
    milp_solves = a.milp_solves + b.milp_solves;
    milp_nodes = a.milp_nodes + b.milp_nodes;
    flow_certified = a.flow_certified + b.flow_certified;
  }

let timed f =
  let t0 = Clock.now () in
  let r = f () in
  (r, Clock.now () -. t0)

(* The sub-solve memo of one pipeline attempt (§5.3): every isomorphism
   class solved so far, keyed by strategy and exact class key.  It lives
   as long as the attempt — across its combinations, steps and phases, so
   AllReduce's AllGather phase reuses its ReduceScatter phase's classes —
   and no longer, so an outcome never depends on what the process solved
   before.  Only the attempt's own thread touches it: lookups run before
   a pool dispatch and insertions after it. *)
type memo = {
  classes :
    (Subsolver.strategy * string, Subsolver.demand * Schedule.xfer list)
    Hashtbl.t;
  mutable hits : int;
  mutable misses : int;
}

let c_memo_hits = Counters.int_counter "cache.subsolve.hits"
let c_memo_misses = Counters.int_counter "cache.subsolve.misses"

(* A plan with its demands' isomorphism-class keys, in demand order:
   computed once per phase and read by both steps' solves and assemblies. *)
type keyed_plan = { plan : Subsolver.plan; keys : string array }

let key_plan topo (plan : Subsolver.plan) =
  {
    plan;
    keys = Array.of_list (List.map (Subsolver.class_key topo) plan.Subsolver.demands);
  }

(* Solve representatives of every isomorphism class appearing in [plans]
   that the memo does not hold yet, in parallel on the pool, and return a
   solution function of a demand's class key and the demand.  The memo is
   consulted sequentially before dispatch and filled after every solve
   returns, so which classes hit — and hence the produced schedules —
   cannot depend on pool size or scheduling. *)
let solve_plans ~pool ~memo ~budget ?warm strategy topo (plans : keyed_plan list) =
  let classes = Hashtbl.create 64 in
  List.iter
    (fun kp ->
      List.iteri
        (fun i d ->
          let key = kp.keys.(i) in
          if not (Hashtbl.mem classes key) then Hashtbl.replace classes key d)
        kp.plan.Subsolver.demands)
    plans;
  let keys = Array.of_seq (Hashtbl.to_seq_keys classes) in
  let reps = Array.map (Hashtbl.find classes) keys in
  (* A hit carries the representative it was solved for, possibly in
     another group: the solution function below maps it onto each demand
     (identity, or verified mapping with a direct re-solve). *)
  let sols =
    Array.map
      (fun k ->
        let hit = Hashtbl.find_opt memo.classes (strategy, k) in
        if Option.is_some hit then begin
          memo.hits <- memo.hits + 1;
          Atomic.incr c_memo_hits
        end
        else begin
          memo.misses <- memo.misses + 1;
          Atomic.incr c_memo_misses
        end;
        hit)
      keys
  in
  let todo =
    Array.of_list
      (List.filter
         (fun i -> sols.(i) = None)
         (List.init (Array.length keys) Fun.id))
  in
  let solved =
    Pool.map pool
      (fun i ->
        let rep = reps.(i) in
        let w = match warm with None -> None | Some f -> f keys.(i) rep in
        (* Each solve gets a sub-budget of the element's budget (same
           deadline, own degradation mark) so we can tell, per class, whether
           the deadline forced a degraded solution. *)
        let b = Budget.sub budget in
        let xfers =
          Subsolver.solve_demand ?warm:w ~budget:b ~pool strategy topo rep
        in
        if Budget.degraded b then Budget.mark_degraded budget;
        (xfers, Budget.degraded b))
      todo
  in
  Array.iteri
    (fun j i ->
      let xfers, was_degraded = solved.(j) in
      sols.(i) <- Some (reps.(i), xfers);
      (* A deadline-degraded sub-solve (skipped MILP, greedy cut short) is
         never memoized: a later phase re-solves the class rather than
         inherit a solution the deadline cut short. *)
      if not was_degraded then
        Hashtbl.replace memo.classes (strategy, keys.(i)) (reps.(i), xfers))
    todo;
  (* Each class's transfer, staged on its representative here, before the
     assemblies share the table across the pool. *)
  let table = Hashtbl.create (Array.length keys) in
  Array.iteri
    (fun i k ->
      let rep, rep_xfers = Option.get sols.(i) in
      Hashtbl.replace table k (Subsolver.transfer topo ~rep ~rep_xfers))
    keys;
  fun key (d : Subsolver.demand) ->
    match Hashtbl.find_opt table key with
    | Some map -> (
        match map d with
        | Some xfers -> xfers
        | None -> Subsolver.solve_demand ~budget ~pool strategy topo d)
    | None -> Subsolver.solve_demand ~budget ~pool strategy topo d

(* A keyed plan's schedule under a solution function of [solve_plans].  On
   a punctured topology a widened sub-solution relays through GPUs outside
   its group, which can hold the chunk already or get it from another
   demand; the relay then delivers it twice, which a reduce-family mirror
   turns into a GPU sending twice.  Only widened solutions leave their
   group, and only punctured topologies widen. *)
let assemble topo kp ~solution =
  let s = Subsolver.assemble kp.plan ~solution:(fun i d -> solution kp.keys.(i) d) in
  if Fault.is_empty (Topology.faults topo) then s else Schedule.drop_redundant s

(* The two-step synthesis runs at the paper's operating point (§7.1).  The
   coarse step solves every combination with epoch knob E1 and half the
   model-size cap; the candidates within R1 of the best, at most R2 of
   them, go on to the fine step at the config's E2. *)
let e1 = 3.0
let r1 = 0.20
let r2 = 8

(* Epoch models over this many variables skip MILP refinement. *)
let milp_var_budget = 1100

(* Shapes kept (by α-β estimate) for combination, and combinations kept.
   At production scale every combination costs seconds to plan and
   simulate, so fewer of both. *)
let max_shapes topo = if Topology.num_gpus topo >= 256 then 8 else 18
let max_combos topo = if Topology.num_gpus topo >= 256 then 12 else 64

(* Sketch search depends only on (topology, kind, root, config) and
   combination only on (topology, sketches, limits) — not on the data size —
   so both are pure functions of their key and may be shared process-wide.
   The topology enters through its fingerprint (shape, links, port groups,
   faults): combination reads link bandwidths, and two topologies that share
   a name may differ in all of these.  Both caches are bounded and
   mutex-protected: concurrent synthesize calls (the parallel sweep driver)
   share them safely. *)
let search_cache : (string, Sketch.t list) Cache.t =
  Cache.create ~capacity:256 ~name:"cache.search" ()

let combo_cache : (string, Combine.combo list) Cache.t =
  Cache.create ~capacity:256 ~name:"cache.combo" ()

let reset_caches () =
  Cache.clear search_cache;
  Cache.clear combo_cache

let cached_search ~budget topo ~config ~kind ~root =
  let key =
    Format.asprintf "%s/%s/%d/%d/%b/%b/%d/%d" (Topology.fingerprint topo)
      (match kind with `Broadcast -> "b" | `Scatter -> "s")
      root config.Search.max_stages config.Search.prune_isomorphic
      config.Search.prune_consistency
      (Option.value config.Search.relay_limit ~default:(-1))
      config.Search.max_sketches
  in
  match Cache.find_opt search_cache key with
  | Some r -> r
  | None ->
      (* A deadline-truncated sketch list depends on where the deadline
         fell; the cache outlives the deadline, so never memoize one. *)
      let truncated = ref false in
      let r = Search.run ~config ~budget ~truncated topo ~kind ~root in
      if not !truncated then Cache.put search_cache key r;
      r

(* SendRecv needs no sketch machinery: one chunk, one destination.  Compare
   the direct path (each shared dimension) against two-hop relays and keep
   the fastest. *)
let synth_sendrecv cfg topo (phase : Collective.t) =
  let src = phase.Collective.root and dst = phase.Collective.peer in
  let meta =
    {
      Schedule.size = phase.Collective.size;
      mode = `Gather;
      initial = [ src ];
      wanted = [ dst ];
      tag = 0;
    }
  in
  let dims_between u v =
    List.filter
      (fun d ->
        Topology.group_of topo ~dim:d u = Topology.group_of topo ~dim:d v
        && Topology.edge_alive topo ~dim:d u v)
      (List.init (Topology.num_dims topo) (fun d -> d))
  in
  let direct =
    List.map
      (fun d ->
        { Schedule.chunks = [| meta |];
          xfers = [ { Schedule.chunk = 0; src; dst; dim = d; prio = 0 } ] })
      (dims_between src dst)
  in
  let relays =
    List.concat_map
      (fun r ->
        if r = src || r = dst then []
        else
          match (dims_between src r, dims_between r dst) with
          | d1 :: _, d2 :: _ ->
              [
                { Schedule.chunks = [| meta |];
                  xfers =
                    [
                      { Schedule.chunk = 0; src; dst = r; dim = d1; prio = 0 };
                      { Schedule.chunk = 0; src = r; dst; dim = d2; prio = 1 };
                    ] };
              ]
          | _ -> [])
      (List.init (Topology.num_gpus topo) (fun v -> v))
  in
  let best =
    List.fold_left
      (fun acc s ->
        let t = Sim.time ~blocks:cfg.blocks topo s in
        match acc with Some (_, tb) when tb <= t -> acc | _ -> Some (s, t))
      None (direct @ relays)
  in
  match best with
  | Some (s, t) ->
      (s, t, zero_breakdown, 0, List.length direct + List.length relays, "sendrecv")
  | None -> failwith "Synthesizer: peers are not connected"

(* Synthesize one non-AllReduce phase; returns (schedule, simulated time,
   stats).  The schedule is already mirrored for reduce-family phases. *)
let synth_phase ~pool ~memo ~budget cfg topo (phase : Collective.t) =
  Trace.with_span ~cat:"stage" "synth.phase"
    ~args:[ ("collective", Format.asprintf "%a" Collective.pp phase) ]
  @@ fun () ->
  if phase.Collective.kind = Collective.SendRecv then synth_sendrecv cfg topo phase
  else
  let primitives = Collective.decompose phase in
  let p0 = List.hd primitives in
  let mirrored = p0.Collective.mirrored in
  (* Reduce-family mirrors combine on the way up ([reverse]); Gather is the
     only non-reducing mirrored kind and must stay a copy ([transpose]). *)
  let mirror =
    if Collective.is_reduce phase.Collective.kind then Schedule.reverse
    else Schedule.transpose
  in
  let kind = p0.Collective.p_kind in
  let search_cfg =
    match cfg.search_config with Some c -> c | None -> Search.default topo kind
  in
  let sketches, search_s =
    timed (fun () ->
        Trace.with_span ~cat:"stage" "synth.search" (fun () ->
            cached_search ~budget topo ~config:search_cfg ~kind
              ~root:p0.Collective.p_root))
  in
  if sketches = [] then failwith "Synthesizer: no sketch covers the demand";
  (* Rank shapes by an α-β estimate and keep the most promising; the
     simulator makes the final call among the survivors.  For one-to-all
     demands the estimate sums per-stage critical sends; for all-to-all
     demands every GPU replays the sketch simultaneously, so per-GPU port
     time per dimension is its workload times the link's byte time. *)
  let sketches =
    let size = Collective.chunk_size phase in
    let all_to_all = List.length primitives > 1 in
    let stage_estimate s =
      List.fold_left
        (fun acc k ->
          let stage_cost =
            List.fold_left
              (fun m (sd : Sketch.subdemand) ->
                if sd.Sketch.sd_stage <> k then m
                else begin
                  let link = (Topology.dim topo sd.Sketch.sd_dim).Syccl_topology.Topology.link in
                  let rounds =
                    (List.length sd.Sketch.dsts + List.length sd.Sketch.srcs - 1)
                    / max 1 (List.length sd.Sketch.srcs)
                  in
                  Float.max m
                    (link.Syccl_topology.Link.alpha
                    +. (link.Syccl_topology.Link.beta *. size *. float_of_int rounds))
                end)
              0.0 (Sketch.subdemands topo s)
          in
          acc +. stage_cost)
        0.0
        (List.init s.Sketch.num_stages (fun k -> k))
    in
    let merged_estimate s =
      let w = Sketch.dim_workload topo s in
      let worst = ref 0.0 in
      Array.iteri
        (fun d wd ->
          let link = (Topology.dim topo d).Syccl_topology.Topology.link in
          let t = wd *. link.Syccl_topology.Link.beta *. size in
          if t > !worst then worst := t)
        w;
      !worst +. stage_estimate s *. 1e-3
      (* stage term only breaks ties toward lower latency *)
    in
    let estimate = if all_to_all then merged_estimate else stage_estimate in
    let ranked =
      List.map (fun s -> (estimate s, s)) sketches
      |> List.stable_sort (fun (a, _) (b, _) -> Float.compare a b)
      |> List.map snd
    in
    let cap = max_shapes topo in
    let kept = List.filteri (fun i _ -> i < cap) ranked in
    (* A shape that is slow alone can be the essential complement of a mix
       (§4.2 step 2 balances dimensions by pairing opposite profiles), so
       also keep, per dimension, the best-ranked shape whose workload
       concentrates there. *)
    let dominant s =
      let w = Sketch.dim_workload topo s in
      let total = Array.fold_left ( +. ) 0.0 w in
      let best = ref 0 in
      Array.iteri (fun d v -> if v > w.(!best) then best := d) w;
      if total > 0.0 && w.(!best) > 0.5 *. total then Some !best else None
    in
    let complements =
      List.filter_map
        (fun d ->
          if List.exists (fun s -> dominant s = Some d) kept then None
          else List.find_opt (fun s -> dominant s = Some d) ranked)
        (List.init (Topology.num_dims topo) (fun d -> d))
    in
    kept @ complements
  in
  let combos, combine_s =
    timed (fun () ->
        Trace.with_span ~cat:"stage" "synth.combine" @@ fun () ->
        (* Combinations are also size-independent (fractions are ratios);
           key by the kept shapes' signatures. *)
        let max_combos = max_combos topo in
        let key =
          Format.asprintf "%s/%b/%d/%a" (Topology.fingerprint topo)
            (List.length primitives > 1)
            max_combos
            (fun fmt l ->
              List.iter (fun s -> Format.fprintf fmt "%x." (Sketch.signature topo s)) l)
            sketches
        in
        match Cache.find_opt combo_cache key with
        | Some r -> r
        | None ->
            let r =
              if List.length primitives > 1 then
                Combine.combos_all_to_all ~max_combos ~budget topo sketches
              else Combine.combos_one_to_all ~max_combos ~budget topo sketches
            in
            (* An expired budget may have truncated generation mid-way;
               where it stopped is timing-dependent, so don't memoize. *)
            if not (Budget.expired budget) then Cache.put combo_cache key r;
            r)
  in
  let plans = List.map (fun c -> (c, Subsolver.plan topo phase c)) combos in
  (* Step 1: fast solving of every combination, then filtering (§5.3). *)
  let (step1, solution1), solve1_s =
    timed (fun () ->
        Trace.with_span ~cat:"stage" "synth.solve1" @@ fun () ->
        let strategy =
          if cfg.fast_only then Subsolver.Fast_only
          else
            (* Coarse solving: large epochs (E1) and a small refinement
               budget — quick screening of every combination. *)
            Subsolver.Milp_refine
              {
                e = e1;
                var_budget = milp_var_budget / 2;
                node_limit = min 20 cfg.milp_node_limit;
                time_limit = Float.min 2.0 cfg.milp_time_limit;
              }
        in
        let plans = List.map (fun (c, p) -> (c, key_plan topo p)) plans in
        let solution =
          solve_plans ~pool ~memo ~budget strategy topo (List.map snd plans)
        in
        (* Coarse screening simulates with few blocks; survivors get the
           full-fidelity simulation in step 2.  Candidates are independent,
           so assembly + simulation also spread across the pool (the
           class-solution table is read-only by now). *)
        let screen_blocks = min 2 cfg.blocks in
        ( Array.to_list
            (Pool.map pool
               (fun (c, p) ->
                 let s = assemble topo p ~solution in
                 let s = if mirrored then mirror s else s in
                 (c, p, s, Sim.time ~blocks:screen_blocks topo s))
               (Array.of_list plans)),
          solution ))
  in
  (* Very large schedules are simulated with coarser pipelining: block count
     barely moves the makespan once chunks are megabytes, but event counts
     grow linearly. *)
  let fidelity_blocks s =
    if Schedule.num_xfers s > 40_000 then min 2 cfg.blocks else cfg.blocks
  in
  let best_t =
    List.fold_left (fun a (_, _, _, t) -> Float.min a t) infinity step1
  in
  let survivors =
    List.filter (fun (_, _, _, t) -> t <= best_t *. (1.0 +. r1)) step1
    |> List.sort (fun (_, _, _, a) (_, _, _, b) -> Float.compare a b)
    |> List.filteri (fun i _ -> i < r2)
  in
  (* Step 2: accurate solving and full-fidelity simulation of the
     surviving candidates. *)
  let step2, solve2_s =
    timed (fun () ->
        Trace.with_span ~cat:"stage" "synth.solve2" @@ fun () ->
        if Budget.expired budget then begin
          (* No time left to refine or re-simulate: keep the survivors at
             their coarse screening fidelity. *)
          Budget.mark_degraded budget;
          survivors
        end
        else if cfg.fast_only then
          List.map
            (fun (c, p, s1, _) ->
              (c, p, s1, Sim.time ~blocks:(fidelity_blocks s1) topo s1))
            survivors
        else begin
          let strategy =
            Subsolver.Milp_refine
              {
                e = cfg.e2;
                var_budget = milp_var_budget;
                node_limit = cfg.milp_node_limit;
                time_limit = cfg.milp_time_limit;
              }
          in
          (* Fine solves warm-start from the coarse incumbent for the same
             demand (step 1's class table is read-only by now). *)
          let solution =
            solve_plans ~pool ~memo ~budget
              ~warm:(fun key d -> Some (solution1 key d))
              strategy topo
              (List.map (fun (_, p, _, _) -> p) survivors)
          in
          List.map
            (fun (c, p, s1, _) ->
              let s2 = assemble topo p ~solution in
              let s2 = if mirrored then mirror s2 else s2 in
              let t1 = Sim.time ~blocks:(fidelity_blocks s1) topo s1 in
              let t2 = Sim.time ~blocks:(fidelity_blocks s2) topo s2 in
              if t2 < t1 then (c, p, s2, t2) else (c, p, s1, t1))
            survivors
        end)
  in
  let (combo, _, sched, t) =
    match
      List.sort (fun (_, _, _, a) (_, _, _, b) -> Float.compare a b) step2
    with
    | best :: _ -> best
    | [] -> failwith "Synthesizer: no candidate survived"
  in
  ( sched,
    t,
    { zero_breakdown with search_s; combine_s; solve1_s; solve2_s },
    List.length sketches,
    List.length combos,
    combo.Combine.desc )

(* One pipeline attempt, with its own sub-solve memo. *)
let attempt ~config ~budget topo coll =
  Trace.with_span ~cat:"stage" "synthesize"
    ~args:
      [
        ("collective", Format.asprintf "%a" Collective.pp coll);
        ("topo", topo.Topology.name);
      ]
  @@ fun () ->
  let t0 = Clock.now () in
  if coll.Collective.n <> Topology.num_gpus topo then
    invalid_arg "Synthesizer: collective/topology GPU count mismatch";
  (* MILP activity attributed to this call: deltas of the shared
     process-wide counters (see the breakdown doc for concurrency caveats). *)
  let activity0 =
    ( Counters.value "milp.solves",
      Counters.value "milp.nodes",
      Counters.value "milp.flow_certified" )
  in
  let memo = { classes = Hashtbl.create 256; hits = 0; misses = 0 } in
  let pool = Pool.get config.domains in
  let phases = Collective.phases coll in
  let results = List.map (synth_phase ~pool ~memo ~budget config topo) phases in
  let schedules = List.map (fun (s, _, _, _, _, _) -> s) results in
  let time = List.fold_left (fun a (_, t, _, _, _, _) -> a +. t) 0.0 results in
  let breakdown =
    List.fold_left (fun a (_, _, b, _, _, _) -> add_breakdown a b) zero_breakdown results
  in
  let breakdown =
    let s0, n0, f0 = activity0 in
    let d now before = int_of_float (now -. before) in
    {
      breakdown with
      cache_hits = memo.hits;
      cache_misses = memo.misses;
      milp_solves = d (Counters.value "milp.solves") s0;
      milp_nodes = d (Counters.value "milp.nodes") n0;
      flow_certified = d (Counters.value "milp.flow_certified") f0;
    }
  in
  let num_sketches = List.fold_left (fun a (_, _, _, s, _, _) -> a + s) 0 results in
  let num_combos = List.fold_left (fun a (_, _, _, _, c, _) -> a + c) 0 results in
  let chosen = String.concat " + " (List.map (fun (_, _, _, _, _, d) -> d) results) in
  let synth_time = Clock.now () -. t0 in
  Counters.bump "synth.calls";
  Counters.addf "synth.total_s" synth_time;
  Counters.addf "synth.search_s" breakdown.search_s;
  Counters.addf "synth.combine_s" breakdown.combine_s;
  Counters.addf "synth.solve1_s" breakdown.solve1_s;
  Counters.addf "synth.solve2_s" breakdown.solve2_s;
  {
    schedules;
    time;
    busbw = Collective.busbw coll ~time;
    synth_time;
    breakdown;
    num_sketches;
    num_combos;
    chosen;
    degraded = Full;
    degrade_reason = None;
  }

let budget_of_config config =
  match config.deadline with
  | None -> Budget.unlimited
  | Some s -> Budget.create ~seconds:s ()

(* An outcome no synthesis stage produced: a registry hit, or a baseline
   rung (with its level and reason). *)
let unsynthesized ?(synth_time = 0.0) ?degraded coll ~chosen ~time schedules =
  {
    schedules;
    time;
    busbw = Collective.busbw coll ~time;
    synth_time;
    breakdown = zero_breakdown;
    num_sketches = 0;
    num_combos = 0;
    chosen;
    degraded = (match degraded with None -> Full | Some (level, _) -> level);
    degrade_reason = Option.map snd degraded;
  }

(* The bottom of the ladder, a validated precomputed baseline
   ({!Syccl_baselines.Fallback}).  Healthy topology: straight to the
   baseline.  Punctured topology: first the reroute rung — the healthy
   base topology's baseline with its transfers rerouted around the dead
   hardware, validated (an invalid reroute counts as the rung crashing) —
   and only then the baseline on the punctured topology itself, whose
   candidates may all be severed.  Simulation is best-effort here: when
   the simulator is the faulty or too-slow component, [time]/[busbw] come
   out as nan rather than the rung failing. *)
let last_resort ~t0 ~reason config topo coll =
  let baseline level ~reason ~chosen schedules =
    let time =
      try Sim.phases_time ~blocks:config.blocks topo schedules
      with _ -> Float.nan
    in
    unsynthesized ~synth_time:(Clock.now () -. t0) ~degraded:(level, reason)
      coll ~chosen ~time schedules
  in
  let fallback reason =
    Counters.bump "synth.fallbacks";
    Trace.instant "synth.fallback" ~args:[ ("reason", reason) ];
    baseline Fallback ~reason ~chosen:"baseline-fallback"
      (Syccl_baselines.Fallback.schedule topo coll)
  in
  if Fault.is_empty (Topology.faults topo) then fallback reason
  else
    match
      Counters.bump "synth.reroutes";
      Trace.instant "synth.reroute" ~args:[ ("reason", reason) ];
      let healthy =
        Syccl_baselines.Fallback.schedule (Topology.base topo) coll
      in
      let o =
        baseline Rerouted ~reason ~chosen:"baseline-rerouted"
          (Reroute.schedules topo healthy)
      in
      match Syccl_sim.Validate.validate topo coll o.schedules with
      | Ok () ->
          Counters.bump "synth.degraded";
          o
      | Error e ->
          failwith ("Synthesizer: rerouted schedule failed validation: " ^ e)
    with
    | o -> o
    | exception e ->
        Counters.bump "synth.rung_failures";
        Trace.instant "synth.degrade"
          ~args:[ ("rung", "rerouted"); ("error", Printexc.to_string e) ];
        fallback (Printexc.to_string e)

(* Degradation ladder: a full-pipeline attempt, then — if that crashed — a
   fast-only retry under the same budget, then (on punctured topologies) a
   reroute of the healthy baseline around the dead hardware, then the
   precomputed baseline.  Every rung's schedules must pass
   Validate.validate before they are returned; a rung producing an invalid
   schedule counts as that rung crashing.  Caller errors (GPU-count
   mismatch) are raised before the ladder engages so a fallback never
   masks them. *)
let synthesize_with ~config ~budget topo coll =
  if coll.Collective.n <> Topology.num_gpus topo then
    invalid_arg "Synthesizer: collective/topology GPU count mismatch";
  let t0 = Clock.now () in
  let validated level reason (o : outcome) =
    match Syccl_sim.Validate.validate topo coll o.schedules with
    | Ok () ->
        if level <> Full then Counters.bump "synth.degraded";
        { o with degraded = level; degrade_reason = reason }
    | Error e -> failwith ("Synthesizer: schedule failed validation: " ^ e)
  in
  let rung_failed rung e =
    Counters.bump "synth.rung_failures";
    Trace.instant "synth.degrade"
      ~args:[ ("rung", rung); ("error", Printexc.to_string e) ]
  in
  match
    let o = attempt ~config ~budget topo coll in
    let level = if Budget.degraded budget then Fast else Full in
    validated level (if level = Fast then Some "deadline" else None) o
  with
  | o -> o
  | exception e1 ->
      rung_failed "full" e1;
      let r1 = Printexc.to_string e1 in
      if config.fast_only || Budget.expired budget then
        last_resort ~t0 ~reason:r1 config topo coll
      else begin
        match
          let cfg = { config with fast_only = true } in
          validated Fast (Some r1)
            (attempt ~config:cfg ~budget topo coll)
        with
        | o -> o
        | exception e2 ->
            rung_failed "fast" e2;
            last_resort ~t0 ~reason:(Printexc.to_string e2) config topo coll
      end

let synthesize ?(config = default_config) topo coll =
  synthesize_with ~config ~budget:(budget_of_config config) topo coll

(* Parallel sweep: synthesize a whole size/collective series as one
   map on the pool the per-call solves use, so the nested class maps and
   node waves inside each synthesize share its workers; with
   [config.domains <= 1] this is a sequential map.  Every element is a
   standalone synthesis (each attempt has its own sub-solve memo), so its
   outcome cannot depend on its siblings, on the width or on worker
   scheduling.

   Fault isolation: every element runs the full degradation ladder under
   its own {!Budget.sub} of the sweep budget (shared deadline, own
   degradation mark), so a crashing or expiring element degrades — it
   does not abort its siblings or the sweep.  An element that dies outside
   the ladder (e.g. the ["pool.crash"] fault point fires before the ladder
   runs) surfaces as [Error]. *)
let synthesize_all_results ?(config = default_config) topo colls =
  let sweep_budget = budget_of_config config in
  Pool.map_result (Pool.get config.domains)
    (fun coll ->
      synthesize_with ~config ~budget:(Budget.sub sweep_budget) topo coll)
    (Array.of_list colls)
  |> Array.to_list
  |> List.map (Result.map_error Printexc.to_string)

let synthesize_all ?(config = default_config) topo colls =
  List.map2
    (fun coll r ->
      match r with
      | Ok o -> o
      | Error reason ->
          (* The element's task died before the ladder could catch it;
             rebuild its result from the bottom rungs in this thread. *)
          last_resort ~t0:(Clock.now ()) ~reason config topo coll)
    colls
    (synthesize_all_results ~config topo colls)
