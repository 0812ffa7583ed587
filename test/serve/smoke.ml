(* Registry round-trip smoke and golden serve output, run by the `runtest`
   alias.

   One batch of anchor requests (a duplicate, a rooted collective on a
   second family and a faulted fingerprint among them) is
   served against a fresh registry, every pass through the lower --check
   hook.  Pass 1 must synthesize and store every anchor.  Pass 2 repeats
   the anchors and adds near-misses, and must be 100% registry hits with
   every `via` (exact, scaled, transported, scaled_cross) represented.
   Pass 3 repeats pass 2 and must be byte-identical to it (synth_time_s,
   the only timing field, excepted).  A last pass serves anchors without a
   registry.  The audit trail must carry one record per request element,
   each round-tripping through its canonical JSON encoding, with registry
   provenance matching the outcome.

   The pool width comes from SYCCL_TEST_DOMAINS (default 1).  Passes 1, 2
   and the registry-less pass are written to the file named by the first
   argument: per outcome, its Serve.outcome_to_json line (synth_time_s
   zeroed), then its audit record (ts and consumed_s zeroed).  The runtest
   rule diffs that file against the committed golden.jsonl.  Exits non-zero
   on any violation. *)

module Json = Syccl_util.Json
module Fault = Syccl_topology.Fault
module Synth = Syccl.Synthesizer
module Request = Syccl_serve.Request
module Registry = Syccl_serve.Registry
module Serve = Syccl_serve.Serve
module Audit = Syccl_serve.Audit

let fail fmt = Format.kasprintf (fun m -> prerr_endline ("FAIL: " ^ m); exit 1) fmt

let domains =
  match Option.bind (Sys.getenv_opt "SYCCL_TEST_DOMAINS") int_of_string_opt with
  | Some n when n > 0 -> n
  | _ -> 1

let config = { Synth.default_config with Synth.domains }

let mk ?root ?faults topology collective size =
  Request.make ~config ?root ?faults ~topology ~collective ~size ()

(* One synthesized anchor per topology fingerprint: a batch synthesizes a
   fingerprint's requests concurrently, and their audit records' solver
   deltas would then include each other's work and vary with the pool
   width.  Every cell's largest MILP solve is far below its time limit, so
   the output does not depend on host speed either. *)
let anchors =
  [
    mk "multirail:2x2" "allgather" 65536.0;
    mk "multirail:2x2" "allgather" 65536.0;  (* duplicate: one execution *)
    mk "a100-16" "broadcast" 65536.0;
    mk ~faults:(Fault.decode "link:0:0-1") "multirail:2x2" "allgather" 65536.0;
  ]

(* Near-misses of the anchors, with the `via` each must be served by. *)
let near_misses =
  [
    (mk "a100-16" "broadcast" 100000.0, "scaled");
    (mk ~root:5 "a100-16" "broadcast" 65536.0, "transported");
    (mk "multirail:2x2" "allgather" 147456.0, "scaled_cross");
  ]

let no_registry = [ List.hd anchors; List.nth anchors 3 ]

(* The CLI's lower --check hook. *)
let lower r o = Syccl_check.Refcheck.lower_check r o

(* Canonical rendering with the given fields zeroed. *)
let render ~zero = function
  | Json.Obj fields ->
      Json.to_string
        (Json.Obj
           (List.map
              (fun (k, v) -> if List.mem k zero then (k, Json.Num 0.0) else (k, v))
              fields))
  | _ -> fail "expected a JSON object"

let render_outcome o = render ~zero:[ "synth_time_s" ] (Serve.outcome_to_json o)

let render_record r =
  render ~zero:[ "ts"; "consumed_s" ] (Audit.record_to_json r)

let () =
  let reg =
    Registry.open_dir
      (Filename.concat
         (Filename.get_temp_dir_name ())
         (Printf.sprintf "syccl-smoke-registry-%d" (Unix.getpid ())))
  in
  if Registry.length reg <> 0 then fail "smoke registry not empty at start";
  let audit = Audit.for_registry reg in
  let seen = ref 0 in
  (* Serve one pass and pair each outcome with the audit record it left. *)
  let pass ?registry requests =
    Synth.reset_caches ();
    let outcomes = Serve.run_batch ?registry ~audit ~lower requests in
    let records, bad = Audit.read (Audit.path audit) in
    if bad <> 0 then fail "audit trail has %d unparseable lines" bad;
    let fresh = List.filteri (fun i _ -> i >= !seen) records in
    seen := List.length records;
    if List.length fresh <> List.length requests then
      fail "expected %d audit records (one per element), got %d"
        (List.length requests) (List.length fresh);
    List.iter2
      (fun (o : Serve.outcome) (r : Audit.record) ->
        if Audit.record_of_json (Audit.record_to_json r) <> r then
          fail "audit record for %s does not round-trip" r.Audit.key;
        if o.Serve.lower <> Some (Ok ()) then
          fail "lower --check failed for %s" r.Audit.key;
        let hit = match o.Serve.source with
          | Serve.From_registry _ -> true
          | Serve.From_synthesis -> false
        in
        if hit <> (String.length r.Audit.probe >= 3
                   && String.sub r.Audit.probe 0 3 = "hit") then
          fail "audit probe %s disagrees with the outcome's source"
            r.Audit.probe)
      outcomes fresh;
    List.combine outcomes fresh
  in
  let first = pass ~registry:reg anchors in
  List.iter
    (fun ((o : Serve.outcome), _) ->
      if o.Serve.source <> Serve.From_synthesis then
        fail "pass 1 against an empty registry must synthesize everything")
    first;
  if Registry.length reg <> 3 then
    fail "expected 3 stored entries (4 anchors, 1 duplicate), got %d"
      (Registry.length reg);
  let repeat = anchors @ List.map fst near_misses in
  let second = pass ~registry:reg repeat in
  let third = pass ~registry:reg repeat in
  List.iteri
    (fun i ((o : Serve.outcome), _) ->
      match o.Serve.source with
      | Serve.From_registry _ -> ()
      | Serve.From_synthesis ->
          fail "pass 2 outcome %d missed the registry (must be 100%% hits)" i)
    second;
  List.iter2
    (fun (_, via) ((o : Serve.outcome), _) ->
      match o.Serve.source with
      | Serve.From_registry { via = v; _ } when Registry.via_name v = via -> ()
      | _ -> fail "near-miss was not served via %s" via)
    near_misses
    (List.filteri (fun i _ -> i >= List.length anchors) second);
  List.iter2
    (fun (a, _) (b, _) ->
      if render_outcome a <> render_outcome b then
        fail "outcome differs between identical passes:@.  %s@.  %s"
          (render_outcome a) (render_outcome b))
    second third;
  (* Hits serve the stored quality: simulated cost no worse than pass 1. *)
  List.iter2
    (fun ((a : Serve.outcome), _) ((b : Serve.outcome), _) ->
      if b.Serve.synth.Synth.time > a.Serve.synth.Synth.time *. (1.0 +. 1e-6)
      then fail "registry hit is slower than the stored solve")
    first
    (List.filteri (fun i _ -> i < List.length anchors) second);
  let bare = pass no_registry in
  List.iter
    (fun ((o : Serve.outcome), (r : Audit.record)) ->
      if r.Audit.probe <> "none" || o.Serve.source <> Serve.From_synthesis then
        fail "a registry-less pass must synthesize with probe none")
    bare;
  let oc = open_out_bin Sys.argv.(1) in
  List.iter
    (fun (o, r) ->
      output_string oc (render_outcome o ^ "\n");
      output_string oc (render_record r ^ "\n"))
    (first @ second @ bare);
  close_out oc;
  Registry.destroy reg;
  print_endline
    "serve smoke: 3 entries, repeat passes 100% hits over every via, \
     outputs stable, audit trail round-trips with provenance"
