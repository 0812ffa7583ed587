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
   (the same rule the synthesizer's caches follow). *)
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
   through [synthesize_all] — one concurrent sweep with per-element fault
   containment.  Groups preserve request order; grouping keys on the
   fingerprint, so two requests that built the same cluster under
   different names still share a sweep.  Members are (request key,
   request) pairs. *)
let group_requests keyed =
  let groups = Hashtbl.create 8 and order = ref [] in
  List.iter
    (fun ((_, (r : Request.t)) as member) ->
      let g = (Topology.fingerprint r.Request.topo, r.Request.config) in
      match Hashtbl.find_opt groups g with
      | Some members -> members := member :: !members
      | None ->
          let members = ref [ member ] in
          Hashtbl.add groups g members;
          order := (r.Request.config, members) :: !order)
    keyed;
  List.rev_map (fun (cfg, members) -> (cfg, List.rev !members)) !order

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
   each leaves its own line, so the trail counts traffic, not work.  [key]
   is the request's {!Request.key}, computed once per element by the
   batch. *)
let audit_record ~key (o : outcome) =
  let r = o.request and s = o.synth in
  let b = s.Synthesizer.breakdown in
  {
    Audit.ts = Syccl_util.Clock.now ();
    key;
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
  (* Dedupe on the request key: equal keys get identical outcomes
     (synthesis is a function of everything the key covers, except where a
     MILP wall-clock limit cuts a solve), so each unique request is probed
     and executed once.  The probe runs before any solver: a verified hit
     is served as is, anything else (no registry, or a miss of any reason)
     is synthesized.  Each key is computed once, and every lookup below is
     a hash-table lookup, so the bookkeeping stays linear in the batch. *)
  let keyed = List.map (fun r -> (Request.key r, r)) requests in
  let seen = Hashtbl.create 64 in
  let uniques =
    List.filter_map
      (fun (k, (r : Request.t)) ->
        if Hashtbl.mem seen k then None
        else begin
          Hashtbl.add seen k ();
          let probe =
            Option.map
              (fun reg ->
                Registry.probe reg
                  ~blocks:r.Request.config.Synthesizer.blocks r.Request.topo
                  r.Request.coll)
              registry
          in
          Some (k, r, probe)
        end)
      keyed
  in
  let synth_work =
    List.filter_map
      (fun (k, r, probe) ->
        match probe with Some (Registry.Hit _) -> None | _ -> Some (k, r))
      uniques
  in
  let synthesized = Hashtbl.create 64 in
  List.iter
    (fun (config, members) ->
      let topo = (snd (List.hd members) : Request.t).Request.topo in
      let colls =
        List.map (fun (_, (r : Request.t)) -> r.Request.coll) members
      in
      (* synthesize_all substitutes the validated fallback baseline for
         any element whose task dies outside the degradation ladder, so
         a batch element can fail without failing the batch. *)
      let outs = Synthesizer.synthesize_all ~config topo colls in
      List.iter2
        (fun (k, r) o ->
          Hashtbl.replace synthesized k (o, store_result registry r o))
        members outs)
    (group_requests synth_work);
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
  let by_key = Hashtbl.create 64 in
  List.iter
    (fun (k, request, probe) ->
      Hashtbl.replace by_key k
        (match probe with
        | Some (Registry.Hit hit) -> checked (hit_outcome request hit)
        | None | Some (Registry.Miss _) ->
            let synth, stored = Hashtbl.find synthesized k in
            checked
              { request; source = From_synthesis; probe; synth; stored;
                lower = None }))
    uniques;
  let outcomes = List.map (fun (k, _) -> (k, Hashtbl.find by_key k)) keyed in
  (match audit with
  | None -> ()
  | Some sink ->
      Counters.add "serve.requests" (List.length requests);
      List.iter
        (fun (key, o) -> Audit.append sink (audit_record ~key o))
        outcomes);
  List.map snd outcomes

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
