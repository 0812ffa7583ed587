module Topology = Syccl_topology.Topology
module Collective = Syccl_collective.Collective
module Json = Syccl_util.Json
module Counters = Syccl_util.Counters
module Synthesizer = Syccl.Synthesizer

type source =
  | From_registry of {
      hit_key : string;
      via : Registry.via;
      stored_cost : float;
    }
  | From_synthesis

type outcome = {
  request : Request.t;
  source : source;
  probe : Registry.probe_result option;
      (* the registry's verdict; [None] when served without a registry *)
  synth : Synthesizer.outcome;
  stored : bool;  (* the result was persisted into the registry *)
  lower : (unit, string) result option;
      (* verdict of the caller's lowering check over the schedules actually
         served (registry hits and degraded rungs included); [None] when no
         check was requested *)
}

let hit_outcome (request : Request.t) (hit : Registry.hit) =
  {
    request;
    source =
      From_registry
        {
          hit_key = hit.Registry.hit_key;
          via = hit.Registry.via;
          stored_cost = hit.Registry.stored_cost;
        };
    probe = Some (Registry.Hit hit);
    synth =
      {
        Synthesizer.schedules = hit.Registry.schedules;
        time = hit.Registry.time;
        busbw =
          Collective.busbw request.Request.coll ~time:hit.Registry.time;
        synth_time = 0.0;
        breakdown = Synthesizer.zero_breakdown;
        num_sketches = 0;
        num_combos = 0;
        chosen = hit.Registry.chosen;
        degraded = Synthesizer.Full;
        degrade_reason = None;
      };
    stored = false;
    lower = None;
  }

(* Registry write policy: persist only results the registry may later serve
   in place of a full solve — the top ladder rung, with MILP refinement on.
   Fast-only or degraded results would be valid but slower; storing them
   would let a tight deadline today pollute an unconstrained run tomorrow
   (the same rule the in-memory sub-solve memo follows). *)
let storable (request : Request.t) (o : Synthesizer.outcome) =
  o.Synthesizer.degraded = Synthesizer.Full
  && (not request.Request.config.Synthesizer.fast_only)
  && o.Synthesizer.schedules <> []

(* Storing is fail-open like auditing: a registry that cannot persist (full
   disk, revoked credentials, the registry.crash fault point) costs the
   store, never the response.  Returns whether the result was persisted —
   the one source of truth for the audit trail and every caller. *)
let store_result registry (request : Request.t) (o : Synthesizer.outcome) =
  match registry with
  | Some reg when storable request o -> (
      match
        Registry.store reg request.Request.topo request.Request.coll
          ~blocks:request.Request.config.Synthesizer.blocks
          ~cost:o.Synthesizer.time ~chosen:o.Synthesizer.chosen
          o.Synthesizer.schedules
      with
      | () -> true
      | exception _ ->
          Counters.bump "registry.store_errors";
          false)
  | _ -> false

(* Group synthesis work by (topology structure, config) so each group runs
   through [synthesize_all] — one pipeline invocation with snapshot
   isolation and per-element fault containment.  Groups preserve request
   order; grouping keys on the fingerprint, so two requests that built the
   same cluster under different names still share a sweep. *)
let group_requests requests =
  let groups = ref [] in
  List.iter
    (fun (r : Request.t) ->
      let fp = Topology.fingerprint r.Request.topo in
      match
        List.find_opt
          (fun (fp', cfg, _) -> fp' = fp && cfg = r.Request.config)
          !groups
      with
      | Some (_, _, members) -> members := r :: !members
      | None -> groups := !groups @ [ (fp, r.Request.config, ref [ r ]) ])
    requests;
  List.map (fun (_, cfg, members) -> (cfg, List.rev !members)) !groups

(* The audit trail's "probe" field: every value an operator can aggregate
   misses by.  Rescaled, transported and cross-bucket hits are each
   distinguished because a reused-and-transformed schedule is the thing to
   suspect first when a served cost looks off. *)
let probe_name (o : outcome) =
  match o.probe with
  | None -> "none"
  | Some (Registry.Hit { via = Registry.Exact; _ }) -> "hit"
  | Some (Registry.Hit h) -> "hit." ^ Registry.via_name h.Registry.via
  | Some (Registry.Miss r) -> "miss." ^ Registry.miss_reason_name r

let registry_counts (o : outcome) =
  match o.probe with
  | None -> (0, 0)
  | Some (Registry.Hit _) -> (1, 0)
  | Some (Registry.Miss _) -> (0, 1)

(* One audit record per request element: duplicates share one execution but
   each leaves its own line, so the trail counts traffic, not work. *)
let audit_record (o : outcome) =
  let r = o.request and s = o.synth in
  let b = s.Synthesizer.breakdown in
  {
    Audit.ts = Syccl_util.Clock.now ();
    key = Request.key r;
    fingerprint = Topology.fingerprint r.Request.topo;
    faults = Syccl_topology.Fault.encode (Request.faults r);
    topology = r.Request.topo_name;
    collective =
      String.lowercase_ascii
        (Collective.kind_name r.Request.coll.Collective.kind);
    size = r.Request.coll.Collective.size;
    plan =
      (match o.source with
      | From_registry { via = Registry.Exact; _ } -> "registry-hit"
      | From_registry { via; _ } ->
          Printf.sprintf "registry-hit(%s)" (Registry.via_name via)
      | From_synthesis -> "synthesize");
    probe = probe_name o;
    hit_key =
      (match o.source with
      | From_registry { hit_key; _ } -> Some hit_key
      | From_synthesis -> None);
    rung = Synthesizer.level_name s.Synthesizer.degraded;
    degrade_reason = s.Synthesizer.degrade_reason;
    budget_s = r.Request.config.Synthesizer.deadline;
    consumed_s = s.Synthesizer.synth_time;
    time_s = s.Synthesizer.time;
    busbw = s.Synthesizer.busbw;
    stored = o.stored;
    cache_hits = b.Synthesizer.cache_hits;
    cache_misses = b.Synthesizer.cache_misses;
    milp_solves = b.Synthesizer.milp_solves;
    milp_nodes = b.Synthesizer.milp_nodes;
    flow_certified = b.Synthesizer.flow_certified;
    lowered = o.lower <> None;
    lower_check =
      (match o.lower with
      | None -> None
      | Some (Ok ()) -> Some "ok"
      | Some (Error e) -> Some e);
  }

let run_batch ?registry ?audit ?lower requests =
  (* Dedupe on the request key: equal keys are guaranteed identical
     outcomes (synthesis is deterministic in everything the key covers),
     so each unique request is probed and executed once.  The probe runs
     before any solver: a verified hit is served as is, anything else
     (no registry, or a miss of any reason) is synthesized. *)
  let uniques =
    List.fold_left
      (fun acc r ->
        let k = Request.key r in
        if List.mem_assoc k acc then acc
        else
          let probe =
            Option.map
              (fun reg ->
                Registry.probe reg
                  ~blocks:r.Request.config.Synthesizer.blocks r.Request.topo
                  r.Request.coll)
              registry
          in
          acc @ [ (k, (r, probe)) ])
      [] requests
  in
  let synth_work =
    List.filter_map
      (fun (_, (r, probe)) ->
        match probe with Some (Registry.Hit _) -> None | _ -> Some r)
      uniques
  in
  let synthesized =
    List.concat_map
      (fun (config, members) ->
        let topo = (List.hd members : Request.t).Request.topo in
        let colls = List.map (fun (r : Request.t) -> r.Request.coll) members in
        (* synthesize_all substitutes the validated fallback baseline for
           any element whose task dies outside the degradation ladder, so
           a batch element can fail without failing the batch. *)
        let outs = Synthesizer.synthesize_all ~config topo colls in
        List.map2
          (fun (r : Request.t) o ->
            (Request.key r, (o, store_result registry r o)))
          members outs)
      (group_requests synth_work)
  in
  (* The lowering check runs over the outcome {e as served} — a registry
     hit or a degraded rung lowers exactly the schedules the caller gets,
     never a fresh synthesis.  One check per unique request; duplicate
     requests share the verdict. *)
  let checked (o : outcome) =
    match lower with
    | None -> o
    | Some f ->
        let verdict =
          match f o.request o.synth with
          | v -> v
          | exception e ->
              Error ("lowering check raised: " ^ Printexc.to_string e)
        in
        Counters.bump "serve.lowered";
        (match verdict with
        | Ok () -> ()
        | Error _ -> Counters.bump "serve.lower_failures");
        { o with lower = Some verdict }
  in
  let by_key =
    List.map
      (fun (k, (request, probe)) ->
        match probe with
        | Some (Registry.Hit hit) -> (k, checked (hit_outcome request hit))
        | None | Some (Registry.Miss _) ->
            let synth, stored = List.assoc k synthesized in
            ( k,
              checked
                { request; source = From_synthesis; probe; synth; stored;
                  lower = None } ))
      uniques
  in
  let outcomes = List.map (fun r -> List.assoc (Request.key r) by_key) requests in
  (match audit with
  | None -> ()
  | Some sink ->
      Counters.add "serve.requests" (List.length requests);
      List.iter (fun o -> Audit.append sink (audit_record o)) outcomes);
  outcomes

let run ?registry ?audit ?lower request =
  match run_batch ?registry ?audit ?lower [ request ] with
  | [ o ] -> o
  | _ -> assert false

let outcome_to_json (o : outcome) =
  let r = o.request in
  let s = o.synth in
  let hits, misses = registry_counts o in
  let int i = Json.Num (float_of_int i) in
  Json.Obj
    [
      ("schema_version", Json.Num 1.0);
      ("topology", Json.Str r.Request.topo_name);
      ( "collective",
        Json.Str
          (String.lowercase_ascii
             (Collective.kind_name r.Request.coll.Collective.kind)) );
      ("size", Json.Num r.Request.coll.Collective.size);
      ( "source",
        Json.Str
          (match o.source with
          | From_registry _ -> "registry"
          | From_synthesis -> "synthesis") );
      ( "key",
        match o.source with
        | From_registry { hit_key; _ } -> Json.Str hit_key
        | From_synthesis -> Json.Null );
      ( "scaled",
        Json.Bool
          (match o.source with
          | From_registry { via = Registry.Rescaled | Registry.Scaled_cross; _ }
            ->
              true
          | From_registry _ | From_synthesis -> false) );
      ( "via",
        match o.source with
        | From_registry { via; _ } -> Json.Str (Registry.via_name via)
        | From_synthesis -> Json.Null );
      ("time_s", Json.Num s.Synthesizer.time);
      ("busbw_gbps", Json.Num s.Synthesizer.busbw);
      ("chosen", Json.Str s.Synthesizer.chosen);
      ("degraded", Json.Str (Synthesizer.level_name s.Synthesizer.degraded));
      ( "degrade_reason",
        match s.Synthesizer.degrade_reason with
        | None -> Json.Null
        | Some reason -> Json.Str reason );
      ("registry_hits", int hits);
      ("registry_misses", int misses);
      ("synth_time_s", Json.Num s.Synthesizer.synth_time);
      ( "lower_check",
        match o.lower with
        | None -> Json.Null
        | Some (Ok ()) -> Json.Str "ok"
        | Some (Error e) -> Json.Str e );
    ]
