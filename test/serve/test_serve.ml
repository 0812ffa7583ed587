(* Tests for the serve layer: topology fingerprints, request keys and JSON,
   the persistent schedule registry (round-trip, corruption tolerance,
   concurrent writers), and registry hit/miss surfacing in outcomes. *)

module T = Syccl_topology.Topology
module Builders = Syccl_topology.Builders
module Link = Syccl_topology.Link
module C = Syccl_collective.Collective
module Schedule = Syccl_sim.Schedule
module Sim = Syccl_sim.Sim
module Fallback = Syccl_baselines.Fallback
module Json = Syccl_util.Json
module Counters = Syccl_util.Counters
module Pool = Syccl_util.Pool
module Synth = Syccl.Synthesizer
module Request = Syccl_serve.Request
module Registry = Syccl_serve.Registry
module Serve = Syccl_serve.Serve
module Audit = Syccl_serve.Audit

let check = Alcotest.check
let checkb = Alcotest.(check bool)

(* Each test gets its own registry directory so counter deltas and entry
   counts are isolated; unique-enough via pid + a per-process ticket. *)
let ticket = ref 0

let fresh_registry () =
  incr ticket;
  Registry.open_dir
    (Filename.concat
       (Filename.get_temp_dir_name ())
       (Printf.sprintf "syccl-test-registry-%d-%d" (Unix.getpid ()) !ticket))

let delta name f =
  let before = Counters.value name in
  let r = f () in
  (r, Counters.value name -. before)

let contains hay needle =
  let n = String.length needle in
  let rec go i =
    i + n <= String.length hay && (String.sub hay i n = needle || go (i + 1))
  in
  go 0

(* Where an entry file lives on disk under the sharded layout — tests that
   plant corruption or inspect placement go through this. *)
let entry_path reg k =
  Filename.concat (Registry.dir reg)
    (Filename.concat (Registry.shard_of_key k) (k ^ ".json"))

let topo = Builders.h800_scaled ~servers:2 ~gpus_per_server:2
let n = T.num_gpus topo
let coll = C.make C.AllGather ~n ~size:65536.0

let simulate schedules =
  List.fold_left (fun a s -> a +. Sim.time ~blocks:8 topo s) 0.0 schedules

(* --- fingerprints ----------------------------------------------------- *)

let test_fingerprint_stable () =
  check Alcotest.string "same builder, same digest"
    (T.fingerprint (Builders.h800 ~servers:2))
    (T.fingerprint (Builders.h800 ~servers:2));
  let link = Link.make ~alpha:1e-6 ~gbps:100.0 in
  check Alcotest.string "names do not affect structural identity"
    (T.fingerprint (Builders.single_switch ~name:"alice" ~n:4 ~link ()))
    (T.fingerprint (Builders.single_switch ~name:"bob" ~n:4 ~link ()))

let test_fingerprint_distinct () =
  let fps =
    List.map T.fingerprint
      [
        Builders.a100 ~servers:2;
        Builders.h800 ~servers:2;
        Builders.h800 ~servers:4;
        Builders.fig3 ();
        Builders.h800_scaled ~servers:2 ~gpus_per_server:2;
      ]
  in
  check Alcotest.int "all structurally distinct topologies differ"
    (List.length fps)
    (List.length (List.sort_uniq compare fps))

(* --- request keys and JSON -------------------------------------------- *)

let req ?(config = Synth.default_config) ?(size = 65536.0) () =
  Request.make ~config ~topology:"multirail:2x2" ~collective:"allgather" ~size
    ()

let test_request_key () =
  let base = req () in
  let more_domains =
    req ~config:{ Synth.default_config with Synth.domains = 7 } ()
  in
  check Alcotest.string "domains excluded: same work, same key"
    (Request.key base) (Request.key more_domains);
  checkb "size changes the key" false
    (Request.key base = Request.key (req ~size:131072.0 ()));
  checkb "fast_only changes the key" false
    (Request.key base
    = Request.key
        (req ~config:{ Synth.default_config with Synth.fast_only = true } ()))

let test_request_json_roundtrip () =
  let r =
    req ~config:{ Synth.default_config with Synth.deadline = Some 1.5 } ()
  in
  let r' = Request.of_json (Request.to_json r) in
  check Alcotest.string "round-trip preserves the key" (Request.key r)
    (Request.key r');
  check Alcotest.string "round-trip preserves the topology name"
    r.Request.topo_name r'.Request.topo_name;
  Alcotest.check_raises "missing size rejected"
    (Json.Parse_error "request is missing \"size\"") (fun () ->
      ignore
        (Request.of_json
           (Json.Obj
              [
                ("topology", Json.Str "fig3");
                ("collective", Json.Str "allgather");
              ])))

(* --- registry round-trip ---------------------------------------------- *)

let test_registry_roundtrip () =
  let reg = fresh_registry () in
  let schedules = Fallback.schedule topo coll in
  let cost = simulate schedules in
  Registry.store reg topo coll ~cost ~chosen:"fallback" schedules;
  check Alcotest.int "one entry on disk" 1 (Registry.length reg);
  (match Registry.lookup reg topo coll with
  | None -> Alcotest.fail "stored entry must be a hit"
  | Some hit ->
      checkb "same size: exact" true (hit.Registry.via = Registry.Exact);
      check Alcotest.string "chosen survives" "fallback" hit.Registry.chosen;
      checkb "re-simulated cost no worse than stored" true
        (hit.Registry.time <= cost *. (1.0 +. 1e-6)));
  (* Same bucket, different size: served scaled, still valid. *)
  let coll' = C.make C.AllGather ~n ~size:100000.0 in
  (match Registry.lookup reg topo coll' with
  | None -> Alcotest.fail "in-bucket size must be a (scaled) hit"
  | Some hit ->
      checkb "rescaled from the stored size" true
        (hit.Registry.via = Registry.Rescaled);
      checkb "rescaled schedules validate" true
        (match Syccl_sim.Validate.validate topo coll' hit.Registry.schedules with
        | Ok () -> true
        | Error _ -> false));
  (* Different bucket / different kind: misses. *)
  checkb "other bucket misses" true
    (Registry.lookup reg topo (C.make C.AllGather ~n ~size:1048576.0) = None);
  checkb "other kind misses" true
    (Registry.lookup reg topo (C.make C.ReduceScatter ~n ~size:65536.0) = None)

let test_registry_corrupt_entry () =
  let reg = fresh_registry () in
  let schedules = Fallback.schedule topo coll in
  Registry.store reg topo coll ~cost:(simulate schedules) ~chosen:"fallback"
    schedules;
  let path = entry_path reg (Registry.key topo coll) in
  (* Truncate the entry mid-file: the lookup must demote it to a counted
     miss, not raise. *)
  let body =
    let ic = open_in_bin path in
    let s = really_input_string ic (in_channel_length ic / 2) in
    close_in ic;
    s
  in
  let oc = open_out path in
  output_string oc body;
  close_out oc;
  let result, corrupt =
    delta "registry.miss.corrupt" (fun () ->
        snd (delta "registry.misses" (fun () -> Registry.lookup reg topo coll)))
  in
  ignore result;
  check (Alcotest.float 0.0) "corrupt counted" 1.0 corrupt;
  let result, missed =
    delta "registry.misses" (fun () -> Registry.lookup reg topo coll)
  in
  checkb "truncated entry is a miss" true (result = None);
  check (Alcotest.float 0.0) "miss counted" 1.0 missed;
  (* Not-JSON garbage behaves the same. *)
  let oc = open_out path in
  output_string oc "not json at all {{{";
  close_out oc;
  let result, corrupt =
    delta "registry.miss.corrupt" (fun () -> Registry.lookup reg topo coll)
  in
  checkb "garbage entry is a miss" true (result = None);
  check (Alcotest.float 0.0) "garbage counted corrupt" 1.0 corrupt

let test_registry_schema_mismatch () =
  let reg = fresh_registry () in
  let schedules = Fallback.schedule topo coll in
  Registry.store reg topo coll ~cost:(simulate schedules) ~chosen:"fallback"
    schedules;
  let path = entry_path reg (Registry.key topo coll) in
  let ic = open_in_bin path in
  let body = really_input_string ic (in_channel_length ic) in
  close_in ic;
  (* Rewrite the entry claiming a future schema: must be a corrupt miss. *)
  let j = Json.of_string body in
  let bumped =
    match j with
    | Json.Obj fields ->
        Json.Obj
          (List.map
             (fun (k, v) ->
               if k = "schema_version" then (k, Json.Num 999.0) else (k, v))
             fields)
    | _ -> Alcotest.fail "entry must be an object"
  in
  let oc = open_out path in
  output_string oc (Json.to_string bumped);
  close_out oc;
  let result, corrupt =
    delta "registry.miss.corrupt" (fun () -> Registry.lookup reg topo coll)
  in
  checkb "future-schema entry is a miss" true (result = None);
  check (Alcotest.float 0.0) "schema mismatch counted corrupt" 1.0 corrupt;
  (* An entry without the simulator fidelity of its stored cost is corrupt
     too: nothing defaults it. *)
  let blockless =
    match j with
    | Json.Obj fields -> Json.Obj (List.remove_assoc "blocks" fields)
    | _ -> Alcotest.fail "entry must be an object"
  in
  let oc = open_out path in
  output_string oc (Json.to_string blockless);
  close_out oc;
  let result, corrupt =
    delta "registry.miss.corrupt" (fun () -> Registry.lookup reg topo coll)
  in
  checkb "entry without blocks is a miss" true (result = None);
  check (Alcotest.float 0.0) "missing blocks counted corrupt" 1.0 corrupt;
  (* A size that is not a positive finite byte count (1e999 parses to inf)
     would send the rescale path into Schedule.scale with a factor <= 0:
     the entry is corrupt, and serving synthesizes instead of crashing.
     The raw number text is spliced in as the entry's first field. *)
  let sizeless =
    match j with
    | Json.Obj fields -> Json.to_string (Json.Obj (List.remove_assoc "size" fields))
    | _ -> Alcotest.fail "entry must be an object"
  in
  List.iter
    (fun size ->
      let oc = open_out path in
      output_string oc ("{\"size\":" ^ size ^ ",");
      output_string oc (String.sub sizeless 1 (String.length sizeless - 1));
      close_out oc;
      let result, corrupt =
        delta "registry.miss.corrupt" (fun () -> Registry.lookup reg topo coll)
      in
      checkb ("size " ^ size ^ " is a miss") true (result = None);
      check (Alcotest.float 0.0) ("size " ^ size ^ " counted corrupt") 1.0
        corrupt;
      let served, corrupt =
        delta "registry.miss.corrupt" (fun () -> Serve.run ~registry:reg (req ()))
      in
      checkb ("size " ^ size ^ " served by synthesis") true
        (served.Serve.source = Serve.From_synthesis);
      check (Alcotest.float 0.0) ("size " ^ size ^ " serve counts corrupt") 1.0
        corrupt)
    [ "-65536"; "1e999" ]

let test_registry_concurrent_writers () =
  let reg = fresh_registry () in
  let schedules = Fallback.schedule topo coll in
  let cost = simulate schedules in
  (* Many pool tasks race to store the same key.  Writes are atomic
     renames, so whichever wins, the surviving entry must parse, validate,
     and hit. *)
  let pool = Pool.get 4 in
  ignore
    (Pool.map pool
       (fun i ->
         Registry.store reg topo coll ~cost
           ~chosen:(Printf.sprintf "writer-%d" i)
           schedules;
         i)
       (Array.init 16 Fun.id));
  check Alcotest.int "exactly one entry survives" 1 (Registry.length reg);
  match Registry.lookup reg topo coll with
  | None -> Alcotest.fail "racing writers must still leave a valid entry"
  | Some hit ->
      checkb "some writer's entry won" true
        (String.length hit.Registry.chosen > 7
        && String.sub hit.Registry.chosen 0 7 = "writer-")

(* --- serve pipeline --------------------------------------------------- *)

let test_outcome_registry_counters () =
  let reg = fresh_registry () in
  let r = req () in
  (* The registry_hits/registry_misses fields of the outcome's JSON line. *)
  let counts (o : Serve.outcome) =
    let field k = Json.to_int (Json.member k (Serve.outcome_to_json o)) in
    (field "registry_hits", field "registry_misses")
  in
  let pair = Alcotest.(pair int int) in
  Synth.reset_caches ();
  let first = Serve.run ~registry:reg r in
  checkb "first run synthesizes" true
    (first.Serve.source = Serve.From_synthesis);
  check pair "miss surfaced, no hit" (0, 1) (counts first);
  let second = Serve.run ~registry:reg r in
  (match second.Serve.source with
  | Serve.From_registry { via; _ } ->
      checkb "exact size" true (via = Registry.Exact)
  | Serve.From_synthesis -> Alcotest.fail "second run must hit the registry");
  check pair "hit surfaced, no miss" (1, 0) (counts second);
  checkb "hit serves the stored quality" true
    (second.Serve.synth.Synth.time
    <= first.Serve.synth.Synth.time *. (1.0 +. 1e-6));
  (* Without a registry both counters stay zero. *)
  let bare = Serve.run (req ~size:32768.0 ()) in
  check pair "no registry, no hits or misses" (0, 0) (counts bare)

let test_fast_only_not_stored () =
  let reg = fresh_registry () in
  let fast = { Synth.default_config with Synth.fast_only = true } in
  let r = req ~config:fast () in
  Synth.reset_caches ();
  let _ = Serve.run ~registry:reg r in
  check Alcotest.int "fast-only results are not persisted" 0
    (Registry.length reg);
  let again = Serve.run ~registry:reg r in
  checkb "fast-only request synthesizes every time" true
    (again.Serve.source = Serve.From_synthesis)

let test_batch_dedupe () =
  let reg = fresh_registry () in
  Synth.reset_caches ();
  let r = req () in
  let outs = Serve.run_batch ~registry:reg [ r; r; r ] in
  check Alcotest.int "every request gets an outcome" 3 (List.length outs);
  let stores = Registry.length reg in
  check Alcotest.int "duplicates share one execution and one store" 1 stores;
  List.iter
    (fun (o : Serve.outcome) ->
      check (Alcotest.float 0.0) "shared outcome" (List.hd outs).Serve.synth.Synth.time
        o.Serve.synth.Synth.time)
    outs

(* --- probe reasons ------------------------------------------------------ *)

let test_probe_miss_reasons () =
  let reg = fresh_registry () in
  (* Cold probe: absent, counted under both the per-reason counter and the
     aggregate. *)
  let (result, misses), absent =
    delta "registry.miss.absent" (fun () ->
        delta "registry.misses" (fun () -> Registry.probe reg topo coll))
  in
  checkb "cold probe is Miss Absent" true
    (match result with
    | Registry.Miss Registry.Absent -> true
    | _ -> false);
  check (Alcotest.float 0.0) "absent counted per-reason" 1.0 absent;
  check (Alcotest.float 0.0) "absent counted in aggregate" 1.0 misses;
  (* Store, then probe: a hit. *)
  let schedules = Fallback.schedule topo coll in
  Registry.store reg topo coll ~cost:(simulate schedules) ~chosen:"fallback"
    schedules;
  checkb "stored probe hits" true
    (match Registry.probe reg topo coll with
    | Registry.Hit _ -> true
    | Registry.Miss _ -> false);
  (* Corrupt the entry: the per-reason counter distinguishes it from a
     cold miss. *)
  let path = entry_path reg (Registry.key topo coll) in
  let oc = open_out path in
  output_string oc "garbage";
  close_out oc;
  let result, corrupt =
    delta "registry.miss.corrupt" (fun () -> Registry.probe reg topo coll)
  in
  checkb "corrupt probe is Miss Corrupt" true
    (result = Registry.Miss Registry.Corrupt);
  check (Alcotest.float 0.0) "corrupt counted per-reason" 1.0 corrupt

(* --- crash faultpoints: serving is fail-open ---------------------------- *)

let with_faults spec f =
  Syccl_util.Faultpoint.configure spec;
  Fun.protect ~finally:Syccl_util.Faultpoint.clear f

let test_registry_crash_failopen () =
  let reg = fresh_registry () in
  let sink = Audit.for_registry reg in
  Synth.reset_caches ();
  let r = req () in
  (* Write path: the store crashes, the response does not. *)
  let o, store_errors =
    delta "registry.store_errors" (fun () ->
        with_faults "registry.crash:1.0" (fun () ->
            Serve.run ~registry:reg ~audit:sink r))
  in
  checkb "crashed store still serves" true
    (o.Serve.source = Serve.From_synthesis);
  checkb "store crash counted" true (store_errors >= 1.0);
  check Alcotest.int "nothing persisted through the crash" 0
    (Registry.length reg);
  (* The outcome, the audit record and the replayed counters all say the
     store did not happen. *)
  checkb "outcome records no store" false o.Serve.stored;
  (match Audit.read (Audit.path sink) with
  | [ rc ], 0 ->
      checkb "audit records no store" false rc.Audit.stored;
      let (), stores =
        delta "registry.stores" (fun () -> Audit.replay_counters rc)
      in
      check (Alcotest.float 0.0) "replay adds no store" 0.0 stores
  | records, bad ->
      Alcotest.failf "expected one audit record, got %d (+%d bad)"
        (List.length records) bad);
  (* Read path: store cleanly, then crash the lookup — a counted corrupt
     miss that falls back to synthesis, never a serving error. *)
  Synth.reset_caches ();
  let _ = Serve.run ~registry:reg r in
  check Alcotest.int "clean run persists" 1 (Registry.length reg);
  Synth.reset_caches ();
  let o, corrupt =
    delta "registry.miss.corrupt" (fun () ->
        with_faults "registry.crash:1.0" (fun () -> Serve.run ~registry:reg r))
  in
  checkb "crashed lookup falls back to synthesis" true
    (o.Serve.source = Serve.From_synthesis);
  checkb "crashed lookup is a counted corrupt miss" true (corrupt >= 1.0);
  (* Disarmed again: the stored entry is intact and serves as a hit. *)
  Synth.reset_caches ();
  let o = Serve.run ~registry:reg r in
  checkb "entry survives the crashes and hits" true
    (match o.Serve.source with Serve.From_registry _ -> true | _ -> false);
  (* That hit is memoized now, yet every probe still reads the entry: a
     read that crashes turns the memoized hit into a counted corrupt miss
     served by synthesis. *)
  Synth.reset_caches ();
  let o, corrupt =
    delta "registry.miss.corrupt" (fun () ->
        with_faults "registry.crash:1.0" (fun () -> Serve.run ~registry:reg r))
  in
  checkb "crashed read of a memoized hit falls back to synthesis" true
    (o.Serve.source = Serve.From_synthesis);
  check (Alcotest.float 0.0) "crashed read of a memoized hit counted corrupt"
    1.0 corrupt

(* A simulator that crashes while an entry is judged costs the hit, never
   the response: the probe is an invalid miss, for the exact entry and for
   a rescaled one alike, and that verdict is not memoized, so the entry
   hits again once the fault clears. *)
let test_registry_sim_crash_failopen () =
  let reg = fresh_registry () in
  let r = req () in
  let _ = Serve.run ~registry:reg r in
  check Alcotest.int "clean run persists" 1 (Registry.length reg);
  List.iter
    (fun (what, r) ->
      let o =
        with_faults "sim.crash:1.0" (fun () -> Serve.run ~registry:reg r)
      in
      checkb (what ^ ": crashed judge is an invalid miss") true
        (o.Serve.probe = Some (Registry.Miss Registry.Invalid));
      let o = Serve.run ~registry:reg r in
      checkb (what ^ ": hits once the fault clears") true
        (match o.Serve.probe with Some (Registry.Hit _) -> true | _ -> false))
    [ ("exact", r); ("rescaled", req ~size:98304.0 ()) ]

let test_audit_crash_failopen () =
  let reg = fresh_registry () in
  let sink = Audit.for_registry reg in
  Synth.reset_caches ();
  let r = req () in
  let o, write_errors =
    delta "audit.write_errors" (fun () ->
        with_faults "audit.crash:1.0" (fun () ->
            Serve.run ~registry:reg ~audit:sink r))
  in
  checkb "crashed audit still serves" true
    (o.Serve.source = Serve.From_synthesis);
  check (Alcotest.float 0.0) "audit crash counted and dropped" 1.0 write_errors;
  checkb "no trail written through the crash" true
    (not (Sys.file_exists (Audit.path sink))
    || fst (Audit.read (Audit.path sink)) = []);
  (* Disarmed: the next record appends normally after the dropped one. *)
  let _ = Serve.run ~registry:reg ~audit:sink r in
  let records, bad = Audit.read (Audit.path sink) in
  check Alcotest.int "trail resumes cleanly" 1 (List.length records);
  check Alcotest.int "no torn lines left behind" 0 bad

(* --- audit trail -------------------------------------------------------- *)

let test_audit_roundtrip () =
  let reg = fresh_registry () in
  let sink = Audit.for_registry reg in
  Synth.reset_caches ();
  let r = req () in
  let _ = Serve.run_batch ~registry:reg ~audit:sink [ r; r ] in
  let records, bad = Audit.read (Audit.path sink) in
  check Alcotest.int "no torn lines" 0 bad;
  check Alcotest.int "one record per request element" 2 (List.length records);
  List.iter
    (fun (rec_ : Audit.record) ->
      checkb "canonical encoding round-trips" true
        (Audit.record_of_json (Audit.record_to_json rec_) = rec_);
      check Alcotest.string "key matches the request" (Request.key r)
        rec_.Audit.key;
      check Alcotest.string "fingerprint matches" (T.fingerprint r.Request.topo)
        rec_.Audit.fingerprint;
      check Alcotest.string "probe: first pass misses cold" "miss.absent"
        rec_.Audit.probe;
      checkb "synthesis was stored back" true rec_.Audit.stored)
    records;
  (* Second pass: served from the registry, and the trail says so. *)
  let _ = Serve.run_batch ~registry:reg ~audit:sink [ r ] in
  let records, _ = Audit.read (Audit.path sink) in
  check Alcotest.int "appended, not truncated" 3 (List.length records);
  let last = List.nth records 2 in
  check Alcotest.string "probe: second pass hits" "hit" last.Audit.probe;
  checkb "hit carries the entry key" true (last.Audit.hit_key <> None);
  checkb "hits are not re-stored" false last.Audit.stored;
  (* A torn line is skipped and counted, not fatal. *)
  let oc =
    open_out_gen [ Open_append; Open_wronly ] 0o644 (Audit.path sink)
  in
  output_string oc "{\"truncated\": tru";
  close_out oc;
  let records, bad = Audit.read (Audit.path sink) in
  check Alcotest.int "torn line counted" 1 bad;
  check Alcotest.int "intact records survive" 3 (List.length records)

(* --- registry verify is read-only --------------------------------------- *)

let test_verify_entry_nonmutating () =
  let reg = fresh_registry () in
  let schedules = Fallback.schedule topo coll in
  Registry.store reg topo coll ~cost:(simulate schedules) ~chosen:"fallback"
    schedules;
  let key = Registry.key topo coll in
  (* Intact entry with the matching topology: ok. *)
  (match Registry.verify_entry reg ~topo key with
  | Registry.Entry_ok _ -> ()
  | _ -> Alcotest.fail "intact entry must verify ok");
  (* Without a topology, only standalone checks run. *)
  (match Registry.verify_entry reg key with
  | Registry.Entry_unverified _ -> ()
  | _ -> Alcotest.fail "no topology: entry must be unverified, not judged");
  (* Corrupt the entry: verify reports it, does not repair, delete or
     count it. *)
  let path = entry_path reg key in
  let oc = open_out path in
  output_string oc "deliberately corrupt";
  close_out oc;
  let (verdict, corrupt), misses =
    delta "registry.misses" (fun () ->
        delta "registry.miss.corrupt" (fun () -> Registry.verify_entry reg ~topo key))
  in
  checkb "corruption reported" true
    (match verdict with Registry.Entry_corrupt _ -> true | _ -> false);
  check (Alcotest.float 0.0) "serving miss counters untouched" 0.0 misses;
  check (Alcotest.float 0.0) "serving corrupt counters untouched" 0.0 corrupt;
  let ic = open_in_bin path in
  let left = really_input_string ic (in_channel_length ic) in
  close_in ic;
  check Alcotest.string "evidence left in place" "deliberately corrupt" left;
  check Alcotest.int "entry not deleted" 1 (Registry.length reg)

(* --- fault-class entries verify against the healthy topology ------------ *)

let test_verify_faulted_entry () =
  let reg = fresh_registry () in
  let req =
    Request.make
      ~faults:(Syccl_topology.Fault.decode "link:0:0-1")
      ~topology:"multirail:2x2" ~collective:"allgather" ~size:65536.0 ()
  in
  checkb "faulted outcome stored" true
    (Serve.run ~registry:reg req).Serve.stored;
  let key = Registry.key req.Request.topo req.Request.coll in
  (* The entry's recorded fault set punctures the healthy topology back to
     the stored fingerprint. *)
  (match Registry.verify_entry reg ~topo key with
  | Registry.Entry_ok _ -> ()
  | _ -> Alcotest.fail "fault-class entry must verify against healthy -t");
  (match Registry.verify_entry reg ~topo:(Builders.a100 ~servers:2) key with
  | Registry.Entry_unverified _ -> ()
  | _ -> Alcotest.fail "an unrelated topology must leave the entry unverified");
  (* A recorded fault set that does not decode makes the entry corrupt. *)
  let path = entry_path reg key in
  let body =
    match Json.of_string (In_channel.with_open_bin path In_channel.input_all) with
    | Json.Obj kvs ->
        Json.Obj
          (List.map
             (fun (k, v) -> if k = "faults" then (k, Json.Str "link:0:1-0") else (k, v))
             kvs)
    | _ -> Alcotest.fail "entry is not a JSON object"
  in
  Out_channel.with_open_bin path (fun oc ->
      output_string oc (Json.to_string body));
  match Registry.verify_entry reg ~topo key with
  | Registry.Entry_corrupt _ -> ()
  | _ -> Alcotest.fail "an undecodable fault set must make the entry corrupt"

(* --- sharded layout ------------------------------------------------------ *)

let test_shard_layout_manifest () =
  let reg = fresh_registry () in
  (match Registry.manifest reg with
  | Ok v -> check Alcotest.int "manifest written at open" Registry.layout_version v
  | Error e -> Alcotest.fail ("manifest unreadable: " ^ e));
  let schedules = Fallback.schedule topo coll in
  Registry.store reg topo coll ~cost:(simulate schedules) ~chosen:"fallback"
    schedules;
  let k = Registry.key topo coll in
  checkb "entry lands in its shard directory" true
    (Sys.file_exists (entry_path reg k));
  checkb "shard name is the key's first two hex chars" true
    (Registry.shard_of_key k = String.sub k 0 2);
  check Alcotest.int "one entry" 1 (Registry.length reg);
  (* A manifest declaring any other layout stops open_dir with a one-line
     error naming the declared version. *)
  List.iter
    (fun v ->
      let oc = open_out (Filename.concat (Registry.dir reg) "MANIFEST.json") in
      Printf.fprintf oc "{\"layout_version\": %d}\n" v;
      close_out oc;
      match Registry.open_dir (Registry.dir reg) with
      | _ -> Alcotest.failf "layout version %d must be rejected" v
      | exception Failure msg ->
          checkb "one-line error" false (String.contains msg '\n');
          checkb "names the declared version" true
            (contains msg (Printf.sprintf "layout version %d" v)))
    [ 1; 3 ]

let test_shard_racing_writers () =
  let reg = fresh_registry () in
  (* 16 pool tasks write 16 distinct keys concurrently: two kinds across
     eight buckets.  Shard dirs are created on demand under the race; the
     store must end consistent — every entry present, in its shard, and
     the manifest intact. *)
  let colls =
    List.init 16 (fun i ->
        let kind = if i < 8 then C.AllGather else C.ReduceScatter in
        C.make kind ~n ~size:(65536.0 *. (2.0 ** float_of_int (i mod 8))))
  in
  let pool = Pool.get 4 in
  ignore
    (Pool.map pool
       (fun c ->
         let schedules = Fallback.schedule topo c in
         Registry.store reg topo c ~cost:(simulate schedules)
           ~chosen:"fallback" schedules;
         0)
       (Array.of_list colls));
  check Alcotest.int "all sixteen entries survive" 16 (Registry.length reg);
  (match Registry.manifest reg with
  | Ok v -> check Alcotest.int "manifest consistent after the race"
              Registry.layout_version v
  | Error e -> Alcotest.fail ("manifest damaged by the race: " ^ e));
  List.iter
    (fun c ->
      checkb "entry sits in its own shard" true
        (Sys.file_exists (entry_path reg (Registry.key topo c)));
      checkb "every key hits" true (Registry.lookup reg topo c <> None))
    colls

(* --- symmetry-transported near-miss hits --------------------------------- *)

let test_transported_hit () =
  let reg = fresh_registry () in
  let src = C.make C.Broadcast ~root:0 ~n ~size:65536.0 in
  let schedules = Fallback.schedule topo src in
  let src_cost = simulate schedules in
  Registry.store reg topo src ~cost:src_cost ~chosen:"fallback" schedules;
  (* A symmetric root with no entry of its own: the probe must transport
     the root-0 entry along a stabilizer rotation. *)
  let dst = C.make C.Broadcast ~root:2 ~n ~size:65536.0 in
  let result, transported =
    delta "registry.hit.transported" (fun () -> Registry.probe reg topo dst)
  in
  (match result with
  | Registry.Hit h ->
      checkb "served via transport" true (h.Registry.via = Registry.Transported);
      check Alcotest.string "hit_key is the source entry"
        (Registry.key topo src) h.Registry.hit_key;
      checkb "transported schedules validate for the new root" true
        (match Syccl_sim.Validate.validate topo dst h.Registry.schedules with
        | Ok () -> true
        | Error _ -> false);
      (* The automorphism-transport law: cost identity with the source. *)
      checkb "cost identical to the source entry" true
        (Float.abs (h.Registry.time -. src_cost) <= src_cost *. 1e-6)
  | Registry.Miss r ->
      Alcotest.fail
        ("transported probe missed: " ^ Registry.miss_reason_name r));
  check (Alcotest.float 0.0) "transported hit counted" 1.0 transported;
  (* The source's own key still serves exact, untouched by the probe. *)
  match Registry.lookup reg topo src with
  | Some h -> checkb "source still exact" true (h.Registry.via = Registry.Exact)
  | None -> Alcotest.fail "source entry must still hit"

let test_cross_bucket_hit () =
  let reg = fresh_registry () in
  let schedules = Fallback.schedule topo coll in
  Registry.store reg topo coll ~cost:(simulate schedules) ~chosen:"fallback"
    schedules;
  (* One bucket up (150000 ∈ bucket 17, anchor 65536 ∈ bucket 16): served
     by cross-bucket rescaling. *)
  let near = C.make C.AllGather ~n ~size:150000.0 in
  let result, crossed =
    delta "registry.hit.scaled_cross" (fun () -> Registry.probe reg topo near)
  in
  (match result with
  | Registry.Hit h ->
      checkb "served via cross-bucket rescale" true
        (h.Registry.via = Registry.Scaled_cross);
      check Alcotest.string "hit_key is the source entry"
        (Registry.key topo coll) h.Registry.hit_key;
      checkb "rescaled schedules validate at the new size" true
        (match Syccl_sim.Validate.validate topo near h.Registry.schedules with
        | Ok () -> true
        | Error _ -> false)
  | Registry.Miss r ->
      Alcotest.fail
        ("cross-bucket probe missed: " ^ Registry.miss_reason_name r));
  check (Alcotest.float 0.0) "cross-bucket hit counted" 1.0 crossed;
  (* Two buckets away is out of the probe's reach: an honest cold miss. *)
  let far = C.make C.AllGather ~n ~size:1048576.0 in
  checkb "two buckets away stays a miss" true
    (match Registry.probe reg topo far with
    | Registry.Miss _ -> true
    | Registry.Hit _ -> false)

(* --- compaction ---------------------------------------------------------- *)

let test_registry_compact () =
  let reg = fresh_registry () in
  (* Four symmetric broadcast roots, root 0 cheapest: compaction keeps
     only root 0 and lets the transport probe serve the others. *)
  let store_root r ~factor =
    let c = C.make C.Broadcast ~root:r ~n ~size:65536.0 in
    let schedules = Fallback.schedule topo c in
    Registry.store reg topo c
      ~cost:(simulate schedules *. factor)
      ~chosen:"fallback" schedules;
    c
  in
  let kept_coll = store_root 0 ~factor:1.0 in
  let pruned = List.map (fun r -> store_root r ~factor:2.0) [ 1; 2; 3 ] in
  (* Plus one unparseable entry compaction must delete. *)
  let garbage_coll = C.make C.AllGather ~n ~size:65536.0 in
  let garbage_schedules = Fallback.schedule topo garbage_coll in
  Registry.store reg topo garbage_coll
    ~cost:(simulate garbage_schedules)
    ~chosen:"fallback" garbage_schedules;
  let oc = open_out (entry_path reg (Registry.key topo garbage_coll)) in
  output_string oc "rotted";
  close_out oc;
  let s = Registry.compact reg () in
  check Alcotest.int "corrupt entry removed" 1 s.Registry.corrupt_removed;
  check Alcotest.int "dominated roots pruned" 3 s.Registry.dominated_removed;
  check Alcotest.int "nothing evicted without limits" 0 s.Registry.evicted;
  check Alcotest.int "one entry kept" 1 s.Registry.kept;
  check Alcotest.int "on-disk store agrees" 1 (Registry.length reg);
  checkb "kept bytes accounted" true (s.Registry.kept_bytes > 0);
  (* A pruned root still serves — transported from the survivor.  Root 2
     specifically: the source entry is only fallback-quality, and the
     fallback ladder happens to be cheaper at roots 1 and 3 on this
     topology, so the probe's fallback guard (correctly) rejects those. *)
  (match Registry.probe reg topo (List.nth pruned 1) with
  | Registry.Hit h ->
      checkb "pruned root served via transport" true
        (h.Registry.via = Registry.Transported);
      check Alcotest.string "from the kept entry"
        (Registry.key topo kept_coll) h.Registry.hit_key
  | Registry.Miss r ->
      Alcotest.fail ("pruned root must transport: " ^ Registry.miss_reason_name r));
  (* LRU eviction: a second entry, then a one-entry cap with an audit-fed
     recency map — the stale key goes, the fresh one stays. *)
  let fresh_coll = C.make C.ReduceScatter ~n ~size:65536.0 in
  let fresh_schedules = Fallback.schedule topo fresh_coll in
  Registry.store reg topo fresh_coll
    ~cost:(simulate fresh_schedules)
    ~chosen:"fallback" fresh_schedules;
  let fresh_key = Registry.key topo fresh_coll in
  let s =
    Registry.compact reg ~max_entries:1
      ~last_used:(fun k -> if k = fresh_key then Some 100.0 else Some 1.0)
      ()
  in
  check Alcotest.int "one entry evicted to meet the cap" 1 s.Registry.evicted;
  check Alcotest.int "cap met" 1 s.Registry.kept;
  checkb "the recently used entry survives" true
    (Registry.lookup reg topo fresh_coll <> None);
  checkb "the stale entry is gone" true
    (match Registry.probe reg topo kept_coll with
    | Registry.Miss _ -> true
    | Registry.Hit _ -> false)

(* --- executable-lowering hook -------------------------------------------- *)

let test_lower_hook () =
  let reg = fresh_registry () in
  let sink = Audit.for_registry reg in
  Synth.reset_caches ();
  let r = req () in
  (* Without a hook, no verdict is recorded anywhere. *)
  let o = Serve.run ~registry:reg ~audit:sink r in
  checkb "no hook, no verdict" true (o.Serve.lower = None);
  (* The real replay check on a fresh synthesis. *)
  Synth.reset_caches ();
  let real_lower (r : Request.t) (s : Synth.outcome) =
    Syccl_sim.Msccl_interp.check_lowering ~coll:r.Request.coll
      s.Synth.schedules
  in
  let reg2 = fresh_registry () in
  let sink2 = Audit.for_registry reg2 in
  let o, lowered =
    delta "serve.lowered" (fun () ->
        Serve.run ~registry:reg2 ~audit:sink2 ~lower:real_lower r)
  in
  checkb "synthesized schedules lower cleanly" true
    (o.Serve.lower = Some (Ok ()));
  check (Alcotest.float 0.0) "lowering counted" 1.0 lowered;
  (* Second pass is a registry hit: the hook must run over the schedules
     as served from the registry, not only on fresh syntheses. *)
  Synth.reset_caches ();
  let o = Serve.run ~registry:reg2 ~audit:sink2 ~lower:real_lower r in
  checkb "hit path is checked too" true
    ((match o.Serve.source with Serve.From_registry _ -> true | _ -> false)
    && o.Serve.lower = Some (Ok ()));
  (* A failing verdict is recorded, counted, and never fails serving. *)
  Synth.reset_caches ();
  let o, failures =
    delta "serve.lower_failures" (fun () ->
        Serve.run ~registry:reg2 ~audit:sink2
          ~lower:(fun _ _ -> Error "synthetic divergence")
          r)
  in
  checkb "failing hook still serves" true
    (o.Serve.lower = Some (Error "synthetic divergence"));
  check (Alcotest.float 0.0) "failure counted" 1.0 failures;
  (* A hook that raises is demoted to a failed check, not an exception. *)
  Synth.reset_caches ();
  let o =
    Serve.run ~registry:reg2 ~audit:sink2 ~lower:(fun _ _ -> failwith "boom") r
  in
  (match o.Serve.lower with
  | Some (Error e) ->
      checkb "raise recorded as failed check" true
        (let sub = "lowering check raised" in
         String.length e >= String.length sub
         && String.sub e 0 (String.length sub) = sub)
  | _ -> Alcotest.fail "raising hook must record a failed check");
  (* The audit trail carries the verdicts in order. *)
  let records, bad = Audit.read (Audit.path sink2) in
  check Alcotest.int "no torn lines" 0 bad;
  check Alcotest.int "four records" 4 (List.length records);
  let nth i = List.nth records i in
  checkb "clean check audited" true
    ((nth 0).Audit.lowered && (nth 0).Audit.lower_check = Some "ok");
  checkb "hit-path check audited" true
    ((nth 1).Audit.lowered && (nth 1).Audit.lower_check = Some "ok");
  checkb "divergence audited verbatim" true
    ((nth 2).Audit.lower_check = Some "synthetic divergence");
  checkb "records with verdicts round-trip" true
    (List.for_all
       (fun rc -> Audit.record_of_json (Audit.record_to_json rc) = rc)
       records);
  (* And the unhooked run recorded no verdict. *)
  let records, _ = Audit.read (Audit.path sink) in
  let r0 = List.hd records in
  checkb "unhooked record says so" true
    ((not r0.Audit.lowered) && r0.Audit.lower_check = None)

let test_audit_record_without_lowering () =
  (* Every record field is required: a record without the lowering fields
     is a bad line, not a record with defaults. *)
  let reg = fresh_registry () in
  let sink = Audit.for_registry reg in
  Synth.reset_caches ();
  let _ = Serve.run ~registry:reg ~audit:sink (req ()) in
  let records, _ = Audit.read (Audit.path sink) in
  let stripped =
    match Audit.record_to_json (List.hd records) with
    | Json.Obj fields ->
        Json.Obj
          (List.filter
             (fun (k, _) -> k <> "lowered" && k <> "lower_check")
             fields)
    | _ -> Alcotest.fail "record encoding is not an object"
  in
  let oc = open_out_gen [ Open_append; Open_wronly ] 0o644 (Audit.path sink) in
  output_string oc (Json.to_string stripped ^ "\n");
  close_out oc;
  let records, bad = Audit.read (Audit.path sink) in
  check Alcotest.int "the complete record still reads" 1 (List.length records);
  check Alcotest.int "the record without lowering fields is bad" 1 bad

(* --- probe memo: verdicts follow the bytes on disk ----------------------- *)

let verdict_name = function
  | Registry.Hit h -> "hit." ^ Registry.via_name h.Registry.via
  | Registry.Miss r -> "miss." ^ Registry.miss_reason_name r

let check_verdict msg expected result =
  check Alcotest.string msg expected (verdict_name result)

let write_file path body =
  let oc = open_out_bin path in
  output_string oc body;
  close_out oc

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let test_memo_follows_entry () =
  let reg = fresh_registry () in
  let schedules = Fallback.schedule topo coll in
  let cost = simulate schedules in
  Registry.store reg topo coll ~cost ~chosen:"fallback" schedules;
  let probe () = Registry.probe reg topo coll in
  check_verdict "stored entry hits" "hit.exact" (probe ());
  let result, replays = delta "cache.probe.hits" probe in
  check_verdict "repeated probe replays the hit" "hit.exact" result;
  check (Alcotest.float 0.0) "the repeat is a memo hit" 1.0 replays;
  (* Rewritten with a cost below its simulated time: slower than stored. *)
  Registry.store reg topo coll ~cost:(cost *. 0.5) ~chosen:"fallback" schedules;
  check_verdict "rewritten below its simulated time" "miss.slower" (probe ());
  check_verdict "and memoized as such" "miss.slower" (probe ());
  (* Truncated: corrupt. *)
  Registry.store reg topo coll ~cost ~chosen:"fallback" schedules;
  check_verdict "restored entry hits again" "hit.exact" (probe ());
  let path = entry_path reg (Registry.key topo coll) in
  let body = read_file path in
  write_file path (String.sub body 0 (String.length body / 2));
  check_verdict "truncated entry" "miss.corrupt" (probe ());
  (* Removed, with an entry one bucket down: the near-miss pass serves it
     rescaled from there. *)
  let below = C.make C.AllGather ~n ~size:32768.0 in
  let below_schedules = Fallback.schedule topo below in
  Registry.store reg topo below ~cost:(simulate below_schedules)
    ~chosen:"fallback" below_schedules;
  checkb "entry removed" true
    (Registry.remove_entry reg (Registry.key topo coll));
  (match probe () with
  | Registry.Hit h ->
      checkb "removed entry goes to the near-miss pass" true
        (h.Registry.via = Registry.Scaled_cross);
      check Alcotest.string "served from the bucket below"
        (Registry.key topo below) h.Registry.hit_key
  | Registry.Miss r ->
      Alcotest.fail ("removed entry missed: " ^ Registry.miss_reason_name r));
  let result, replays = delta "cache.probe.hits" probe in
  check_verdict "memoized cross-bucket hit" "hit.scaled_cross" result;
  check (Alcotest.float 0.0) "replayed from the memo" 1.0 replays;
  (* A store at the exact key appears between two probes: served exact. *)
  Registry.store reg topo coll ~cost ~chosen:"fallback" schedules;
  check_verdict "newly stored exact entry" "hit.exact" (probe ());
  (* A served hit owns its chunk arrays: clobbering them leaves the
     memoized verdict intact. *)
  (match probe () with
  | Registry.Hit h ->
      List.iter
        (fun (s : Schedule.t) -> Array.fill s.Schedule.chunks 0
            (Array.length s.Schedule.chunks) s.Schedule.chunks.(0))
        h.Registry.schedules
  | Registry.Miss _ -> Alcotest.fail "exact entry must hit");
  match probe () with
  | Registry.Hit h ->
      checkb "memoized schedules untouched by a caller" true
        (h.Registry.schedules = schedules)
  | Registry.Miss _ -> Alcotest.fail "exact entry must hit"

(* Every registry counter a probe moved, as (name, delta) pairs. *)
let registry_deltas f =
  let registry_counters () =
    List.filter
      (fun (name, _) -> String.length name > 9 && String.sub name 0 9 = "registry.")
      (Counters.snapshot ())
  in
  let before = registry_counters () in
  let r = f () in
  let moved =
    List.filter_map
      (fun (name, v) ->
        let v0 = Option.value (List.assoc_opt name before) ~default:0.0 in
        if v <> v0 then Some (name, v -. v0) else None)
      (registry_counters ())
  in
  (r, moved)

let test_memo_replays_counters () =
  let reg = fresh_registry () in
  let store c ~factor =
    let schedules = Fallback.schedule topo c in
    Registry.store reg topo c ~cost:(simulate schedules *. factor)
      ~chosen:"fallback" schedules
  in
  let bcast root = C.make C.Broadcast ~root ~n ~size:65536.0 in
  store coll ~factor:1.0;
  store (bcast 0) ~factor:1.0;
  store (C.make C.ReduceScatter ~n ~size:65536.0) ~factor:0.5;
  let garbage = C.make C.AllToAll ~n ~size:65536.0 in
  store garbage ~factor:1.0;
  write_file (entry_path reg (Registry.key topo garbage)) "rotted";
  List.iter
    (fun (what, c, expected) ->
      let first, first_moved =
        registry_deltas (fun () -> Registry.probe reg topo c)
      in
      check_verdict (what ^ ": first verdict") expected first;
      let (again, again_moved), memo_hits =
        delta "cache.probe.hits" (fun () ->
            registry_deltas (fun () -> Registry.probe reg topo c))
      in
      check Alcotest.string (what ^ ": same verdict") (verdict_name first)
        (verdict_name again);
      check
        Alcotest.(list (pair string (float 0.0)))
        (what ^ ": same registry counter deltas") first_moved again_moved;
      checkb (what ^ ": counted at all") true (first_moved <> []);
      check (Alcotest.float 0.0) (what ^ ": one memo hit") 1.0 memo_hits)
    [
      ("exact", coll, "hit.exact");
      ("rescaled", C.make C.AllGather ~n ~size:100000.0, "hit.scaled");
      ("cross-bucket", C.make C.AllGather ~n ~size:150000.0, "hit.scaled_cross");
      ("transported", bcast 2, "hit.transported");
      ("slower", C.make C.ReduceScatter ~n ~size:65536.0, "miss.slower");
      ("corrupt", garbage, "miss.corrupt");
      ("absent", C.make C.AllGather ~n ~size:1048576.0, "miss.absent");
    ]

(* --- probe and verify judge an entry alike ----------------------------------- *)

(* [body] with the last transfer of its first phase removed. *)
let drop_transfer body =
  let update k f = function
    | Json.Obj kvs ->
        Json.Obj (List.map (fun (k', v) -> (k', if k' = k then f v else v)) kvs)
    | j -> j
  in
  let drop_last l = List.rev (List.tl (List.rev l)) in
  Json.to_string
    (update "schedules"
       (function
         | Json.List (s :: rest) ->
             Json.List
               (update "xfers" (fun x -> Json.List (drop_last (Json.to_list x))) s
               :: rest)
         | j -> j)
       (Json.of_string body))

(* Damaged entries, each judged by a cold probe of the demand its key
   addresses, at the stored fidelity, and by verify_entry: the two must
   agree, and on the expected verdict.  The 16 MiB entry copied under the
   64 KiB key is corrupt, not a rescaled hit. *)
let test_probe_agrees_with_verify () =
  let reg = fresh_registry () in
  let blocks = 2 in
  let store ?(factor = 1.0) c =
    let schedules = Fallback.schedule topo c in
    Registry.store reg topo c ~blocks
      ~cost:(factor *. Sim.phases_time ~blocks topo schedules)
      ~chosen:"fallback" schedules;
    entry_path reg (Registry.key topo c)
  in
  let ag size = C.make C.AllGather ~n ~size in
  let intact = ag 1048576.0 in
  ignore (store intact);
  let truncated = C.make C.AllToAll ~n ~size:65536.0 in
  let path = store truncated in
  let body = read_file path in
  write_file path (String.sub body 0 (String.length body / 2));
  let slower = ag 262144.0 in
  ignore (store ~factor:0.5 slower);
  let invalid = C.make C.ReduceScatter ~n ~size:65536.0 in
  let path = store invalid in
  write_file path (drop_transfer (read_file path));
  let wrong_key = ag 65536.0 in
  write_file (store wrong_key) (read_file (store (ag 16777216.0)));
  let agreeing = function
    | Registry.Entry_ok _ -> "hit.exact"
    | Registry.Entry_corrupt _ -> "miss.corrupt"
    | Registry.Entry_invalid _ -> "miss.invalid"
    | Registry.Entry_slower _ -> "miss.slower"
    | Registry.Entry_unverified _ -> "unverified"
  in
  List.iter
    (fun (what, c, expected) ->
      Registry.reset_memo ();
      let probed = verdict_name (Registry.probe reg ~blocks topo c) in
      let verified =
        agreeing (Registry.verify_entry reg ~topo (Registry.key topo c))
      in
      check Alcotest.string (what ^ ": probe") expected probed;
      check Alcotest.string (what ^ ": verify agrees") probed verified)
    [
      ("intact", intact, "hit.exact");
      ("truncated", truncated, "miss.corrupt");
      ("cost below its simulated time", slower, "miss.slower");
      ("transfer removed", invalid, "miss.invalid");
      ("16 MiB entry under the 64 KiB key", wrong_key, "miss.corrupt");
    ]

(* --- store failures --------------------------------------------------------- *)

let test_store_failure_leaves_no_temp () =
  let reg = fresh_registry () in
  let k = Registry.key topo coll in
  (* The entry's path is a non-empty directory: the rename must fail, the
     store must say so, and the shard must hold no temp file afterwards. *)
  let path = entry_path reg k in
  let rec mkdirs d =
    if not (Sys.file_exists d) then begin
      mkdirs (Filename.dirname d);
      Sys.mkdir d 0o755
    end
  in
  mkdirs path;
  write_file (Filename.concat path "occupant") "x";
  let schedules = Fallback.schedule topo coll in
  checkb "store onto an occupied path raises" true
    (match
       Registry.store reg topo coll ~cost:(simulate schedules)
         ~chosen:"fallback" schedules
     with
    | () -> false
    | exception _ -> true);
  let leftovers =
    List.filter
      (fun f -> String.length f >= 5 && String.sub f 0 5 = ".tmp.")
      (Array.to_list (Sys.readdir (Filename.dirname path)))
  in
  check Alcotest.(list string) "no temp file left in the shard" [] leftovers

let suite =
  [
    Alcotest.test_case "fingerprint stable and name-blind" `Quick
      test_fingerprint_stable;
    Alcotest.test_case "fingerprint distinct across structures" `Quick
      test_fingerprint_distinct;
    Alcotest.test_case "request key covers demand, not parallelism" `Quick
      test_request_key;
    Alcotest.test_case "request JSON round-trip" `Quick
      test_request_json_roundtrip;
    Alcotest.test_case "registry store/lookup round-trip" `Quick
      test_registry_roundtrip;
    Alcotest.test_case "corrupted entry is a counted miss" `Quick
      test_registry_corrupt_entry;
    Alcotest.test_case "schema mismatch is a counted miss" `Quick
      test_registry_schema_mismatch;
    Alcotest.test_case "concurrent writers leave a valid entry" `Quick
      test_registry_concurrent_writers;
    Alcotest.test_case "registry hits/misses surface in outcome JSON" `Quick
      test_outcome_registry_counters;
    Alcotest.test_case "fast-only outcomes are not stored" `Quick
      test_fast_only_not_stored;
    Alcotest.test_case "batch dedupes equal requests" `Quick test_batch_dedupe;
    Alcotest.test_case "probe distinguishes miss reasons" `Quick
      test_probe_miss_reasons;
    Alcotest.test_case "registry.crash faultpoint is fail-open" `Quick
      test_registry_crash_failopen;
    Alcotest.test_case "sim.crash while judging is fail-open" `Quick
      test_registry_sim_crash_failopen;
    Alcotest.test_case "audit.crash faultpoint is fail-open" `Quick
      test_audit_crash_failopen;
    Alcotest.test_case "audit trail round-trips" `Quick test_audit_roundtrip;
    Alcotest.test_case "registry verify is read-only" `Quick
      test_verify_entry_nonmutating;
    Alcotest.test_case "fault-class entries verify against healthy topology"
      `Quick test_verify_faulted_entry;
    Alcotest.test_case "sharded layout and manifest" `Quick
      test_shard_layout_manifest;
    Alcotest.test_case "racing writers across shards stay consistent" `Quick
      test_shard_racing_writers;
    Alcotest.test_case "near-miss probe transports symmetric roots" `Quick
      test_transported_hit;
    Alcotest.test_case "near-miss probe rescales adjacent buckets" `Quick
      test_cross_bucket_hit;
    Alcotest.test_case "compact prunes and evicts" `Quick
      test_registry_compact;
    Alcotest.test_case "lower hook verdicts reach outcome and audit" `Quick
      test_lower_hook;
    Alcotest.test_case "audit records lacking lowering are rejected" `Quick
      test_audit_record_without_lowering;
    Alcotest.test_case "memoized probe verdicts follow the entry file" `Quick
      test_memo_follows_entry;
    Alcotest.test_case "memoized probes bump the counters a fresh probe does"
      `Quick test_memo_replays_counters;
    Alcotest.test_case "probe and verify agree on damaged entries" `Quick
      test_probe_agrees_with_verify;
    Alcotest.test_case "failed store leaves no temp file" `Quick
      test_store_failure_leaves_no_temp;
  ]

let () = Alcotest.run "syccl-serve" [ ("serve", suite) ]
