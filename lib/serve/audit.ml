module Json = Syccl_util.Json
module Clock = Syccl_util.Clock
module Counters = Syccl_util.Counters
module Faultpoint = Syccl_util.Faultpoint

type record = {
  ts : float;
  key : string;
  fingerprint : string;
  faults : string;
  topology : string;
  collective : string;
  size : float;
  plan : string;
  probe : string;
  hit_key : string option;
  rung : string;
  degrade_reason : string option;
  budget_s : float option;
  consumed_s : float;
  time_s : float;
  busbw : float;
  stored : bool;
  cache_hits : int;
  cache_misses : int;
  milp_solves : int;
  milp_nodes : int;
  flow_certified : int;
  lowered : bool;  (* a lowering check ran for this response *)
  lower_check : string option;  (* "ok" or the first divergence *)
}

(* Fixed field order: byte-identical re-encoding is what lets the smoke
   test diff audit trails across runs the way it diffs outcome JSONL. *)
let record_to_json r =
  let int i = Json.Num (float_of_int i) in
  let opt_str = function None -> Json.Null | Some s -> Json.Str s in
  let opt_num = function None -> Json.Null | Some v -> Json.Num v in
  Json.Obj
    [
      ("schema_version", Json.Num 1.0);
      ("ts", Json.Num r.ts);
      ("key", Json.Str r.key);
      ("fingerprint", Json.Str r.fingerprint);
      ("faults", (match r.faults with "" -> Json.Null | s -> Json.Str s));
      ("topology", Json.Str r.topology);
      ("collective", Json.Str r.collective);
      ("size", Json.Num r.size);
      ("plan", Json.Str r.plan);
      ("probe", Json.Str r.probe);
      ("hit_key", opt_str r.hit_key);
      ("rung", Json.Str r.rung);
      ("degrade_reason", opt_str r.degrade_reason);
      ("budget_s", opt_num r.budget_s);
      ("consumed_s", Json.Num r.consumed_s);
      ("time_s", Json.Num r.time_s);
      ("busbw_gbps", Json.Num r.busbw);
      ("stored", Json.Bool r.stored);
      ("cache_hits", int r.cache_hits);
      ("cache_misses", int r.cache_misses);
      ("milp_solves", int r.milp_solves);
      ("milp_nodes", int r.milp_nodes);
      ("flow_certified", int r.flow_certified);
      ("lowered", Json.Bool r.lowered);
      ("lower_check", opt_str r.lower_check);
    ]

let record_of_json j =
  let str name = Json.to_str (Json.member name j) in
  let num name = Json.to_float (Json.member name j) in
  let int name = Json.to_int (Json.member name j) in
  let bool name =
    match Json.member name j with
    | Json.Bool b -> b
    | _ ->
        raise (Json.Parse_error (Printf.sprintf "%S must be a boolean" name))
  in
  let opt name to_v =
    match Json.member name j with Json.Null -> None | v -> Some (to_v v)
  in
  (match Json.member "schema_version" j with
  | Json.Num 1.0 -> ()
  | v ->
      raise
        (Json.Parse_error ("unsupported audit schema_version " ^ Json.to_string v)));
  {
    ts = num "ts";
    key = str "key";
    fingerprint = str "fingerprint";
    faults = Option.value (opt "faults" Json.to_str) ~default:"";
    topology = str "topology";
    collective = str "collective";
    size = num "size";
    plan = str "plan";
    probe = str "probe";
    hit_key = opt "hit_key" Json.to_str;
    rung = str "rung";
    degrade_reason = opt "degrade_reason" Json.to_str;
    budget_s = opt "budget_s" Json.to_float;
    consumed_s = num "consumed_s";
    time_s = num "time_s";
    busbw = num "busbw_gbps";
    stored = bool "stored";
    cache_hits = int "cache_hits";
    cache_misses = int "cache_misses";
    milp_solves = int "milp_solves";
    milp_nodes = int "milp_nodes";
    flow_certified = int "flow_certified";
    lowered = bool "lowered";
    lower_check = opt "lower_check" Json.to_str;
  }

(* --- the sink ------------------------------------------------------------ *)

type t = { path : string; mutex : Mutex.t }

let open_file path = { path; mutex = Mutex.create () }

let for_registry reg =
  open_file (Filename.concat (Registry.dir reg) "audit.jsonl")

let path t = t.path

(* One O_APPEND write per record: appends of one short line are atomic on
   local filesystems, so concurrent writers (pool tasks, other processes
   sharing the registry directory) interleave whole records, never bytes.
   An audit failure must never fail serving — it is counted and dropped. *)
let append t r =
  let line = Json.to_string (record_to_json r) ^ "\n" in
  Mutex.lock t.mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.mutex)
    (fun () ->
      match
        (* Crash probe for the trail: audit I/O failure (disk full, path
           gone) must be counted and dropped, never surfaced to serving. *)
        Faultpoint.inject "audit.crash";
        let fd =
          Unix.openfile t.path [ Unix.O_WRONLY; Unix.O_APPEND; Unix.O_CREAT ]
            0o644
        in
        Fun.protect
          ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
          (fun () ->
            ignore (Unix.write_substring fd line 0 (String.length line)))
      with
      | () -> Counters.bump "audit.records"
      | exception _ -> Counters.bump "audit.write_errors")

(* --- reading back -------------------------------------------------------- *)

let read path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let rec go acc bad =
        match input_line ic with
        | exception End_of_file -> (List.rev acc, bad)
        | line when String.trim line = "" -> go acc bad
        | line -> (
            match record_of_json (Json.of_string line) with
            | r -> go (r :: acc) bad
            | exception _ -> go acc (bad + 1))
      in
      go [] 0)

(* --- offline counter replay (syccl metrics --from-audit) ----------------- *)

(* Reconstruct the serving-side counters one audit record implies, so a
   collected audit trail can be re-exposed as Prometheus metrics after the
   serving process is gone.  Solver-internal counters (pivots, pool
   queues) are not replayable — they lived only in the serving process. *)
let replay_counters r =
  Counters.bump "serve.requests";
  (match r.probe with
  | "hit" | "hit.scaled" -> Counters.bump "registry.hits"
  | "hit.transported" ->
      Counters.bump "registry.hits";
      Counters.bump "registry.hit.transported"
  | "hit.scaled_cross" ->
      Counters.bump "registry.hits";
      Counters.bump "registry.hit.scaled_cross"
  | "none" -> ()
  | probe ->
      (* probe is miss.REASON; the counter family is registry.miss.REASON. *)
      let reason =
        if String.length probe > 5 && String.sub probe 0 5 = "miss." then
          String.sub probe 5 (String.length probe - 5)
        else probe
      in
      Counters.bump ("registry.miss." ^ reason);
      Counters.bump "registry.misses");
  (match r.rung with
  | "full" -> Counters.bump "serve.rung.full"
  | "fast" -> Counters.bump "serve.rung.fast"
  | "rerouted" -> Counters.bump "serve.rung.rerouted"
  | "fallback" -> Counters.bump "serve.rung.fallback"
  | _ -> ());
  if r.stored then Counters.bump "registry.stores";
  if r.lowered then Counters.bump "serve.lowered";
  (match r.lower_check with
  | Some v when v <> "ok" -> Counters.bump "serve.lower_failures"
  | _ -> ());
  Counters.add "cache.subsolve.hits" r.cache_hits;
  Counters.add "cache.subsolve.misses" r.cache_misses;
  Counters.add "milp.solves" r.milp_solves;
  Counters.add "milp.nodes" r.milp_nodes;
  Counters.add "milp.flow_certified" r.flow_certified;
  Counters.observe "audit.synth_time_s" r.consumed_s;
  if Float.is_finite r.time_s then Counters.observe "audit.time_s" r.time_s
