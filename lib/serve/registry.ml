module Topology = Syccl_topology.Topology
module Collective = Syccl_collective.Collective
module Schedule = Syccl_sim.Schedule
module Sim = Syccl_sim.Sim
module Transport = Syccl_sim.Transport
module Validate = Syccl_sim.Validate
module Fallback = Syccl_baselines.Fallback
module Json = Syccl_util.Json
module Counters = Syccl_util.Counters
module Faultpoint = Syccl_util.Faultpoint
module Perm = Syccl_util.Perm
module Fault = Syccl_topology.Fault

type t = { root : string }

let dir t = t.root

let rec mkdirs path =
  if path <> "" && path <> "/" && not (Sys.file_exists path) then begin
    mkdirs (Filename.dirname path);
    try Unix.mkdir path 0o755
    with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Unique-enough temp names without Random: pid + a process-wide ticket.
   Collisions across processes differ in pid; within a process in ticket. *)
let ticket = Atomic.make 0

(* rename is atomic within a directory: a concurrent reader sees either the
   old complete file or the new complete file, never a torn one.  The temp
   file lives in the same directory as its target so the rename never
   crosses a filesystem boundary. *)
let atomic_write ~dir:d path body =
  let tmp =
    Filename.concat d
      (Printf.sprintf ".tmp.%d.%d" (Unix.getpid ())
         (Atomic.fetch_and_add ticket 1))
  in
  let oc = open_out tmp in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc body);
  Sys.rename tmp path

(* --- sharded layout ----------------------------------------------------- *)

(* Layout v2: entries live under 256 shard directories named by the first
   two hex characters of the entry key (git-object style), so concurrent
   writers from many processes spread their renames across directories
   instead of contending on one. *)
let layout_version = 2
let shard_prefix_len = 2
let manifest_name = "MANIFEST.json"
let manifest_path t = Filename.concat t.root manifest_name

let shard_of_key k =
  if String.length k >= shard_prefix_len then String.sub k 0 shard_prefix_len
  else String.make shard_prefix_len '0'

let shard_dir t k = Filename.concat t.root (shard_of_key k)
let shard_path t k = Filename.concat (shard_dir t k) (k ^ ".json")

let manifest_body () =
  Json.to_string ~pretty:true
    (Json.Obj
       [
         ("layout_version", Json.Num (float_of_int layout_version));
         ("shard_prefix_len", Json.Num (float_of_int shard_prefix_len));
         ("schema_version", Json.Num (float_of_int Schedule.schema_version));
       ])
  ^ "\n"

let manifest t =
  let path = manifest_path t in
  if not (Sys.file_exists path) then Error "no manifest"
  else
    match Json.of_string (read_file path) with
    | exception _ -> Error "unreadable manifest"
    | j -> (
        match Json.to_int (Json.member "layout_version" j) with
        | v -> Ok v
        | exception _ -> Error "manifest lacks layout_version")

let open_dir root =
  mkdirs root;
  let t = { root } in
  (match manifest t with
  | Ok v when v <> layout_version ->
      failwith
        (Printf.sprintf
           "registry %s: layout version %d, this build reads only %d" root v
           layout_version)
  | Ok _ -> ()
  | Error _ ->
      (* First open, or a damaged manifest: (re)write ours.  The write is
         atomic and the content deterministic, so racing opens agree. *)
      atomic_write ~dir:root (manifest_path t) (manifest_body ()));
  t

(* Same power-of-two bucketing as the synthesizer's cross-size sub-solve
   memo: schedule structure is size-independent within a bucket, and a
   stored schedule rescales exactly ({!Schedule.scale}) to any size whose
   chunk proportions match.

   [frexp] gives the bucket exactly: size = m * 2^e with m in [0.5, 1), so
   floor(log2 size) = e - 1 with no rounding nudge.  The old
   log-ratio-plus-1e-9 version misbucketed sizes just below an exact power
   of two (Float.pred 2.0 landed in bucket 1), and mapped size <= 0 to
   bucket 0 — colliding with legitimate sizes in [1, 2).  Non-positive
   sizes (rejected by {!Collective.make}, but this function must not lie
   about them) get a sentinel bucket no real size can reach. *)
let size_bucket size =
  if size <= 0.0 || Float.is_nan size then min_int
  else snd (Float.frexp size) - 1

let key_of ~fingerprint ~kind ~root ~peer ~bucket =
  let canon =
    Printf.sprintf
      "syccl-registry-v1;%s;%s;root=%d;peer=%d;bucket=%d;schema=%d"
      fingerprint kind root peer bucket Schedule.schema_version
  in
  Digest.to_hex (Digest.string canon)

let key topo (coll : Collective.t) =
  key_of
    ~fingerprint:(Topology.fingerprint topo)
    ~kind:(Collective.kind_name coll.Collective.kind)
    ~root:coll.Collective.root ~peer:coll.Collective.peer
    ~bucket:(size_bucket coll.Collective.size)

type via = Exact | Rescaled | Transported | Scaled_cross

let via_name = function
  | Exact -> "exact"
  | Rescaled -> "scaled"
  | Transported -> "transported"
  | Scaled_cross -> "scaled_cross"

type hit = {
  schedules : Schedule.t list;
  time : float;
  stored_cost : float;
  stored_blocks : int;
  chosen : string;
  via : via;
  hit_key : string;
}

let entry_json ~fingerprint ~faults ~(coll : Collective.t) ~blocks ~cost
    ~chosen schedules =
  Json.Obj
    [
      ("schema_version", Json.Num (float_of_int Schedule.schema_version));
      ("fingerprint", Json.Str fingerprint);
      ("faults", (match faults with "" -> Json.Null | s -> Json.Str s));
      ("kind", Json.Str (Collective.kind_name coll.Collective.kind));
      ("root", Json.Num (float_of_int coll.Collective.root));
      ("peer", Json.Num (float_of_int coll.Collective.peer));
      ("size", Json.Num coll.Collective.size);
      ("cost", Json.Num cost);
      ("blocks", Json.Num (float_of_int blocks));
      ("chosen", Json.Str chosen);
      ("schedules", Json.List (List.map Schedule.to_json schedules));
    ]

let store t topo (coll : Collective.t) ?(blocks = 8) ~cost ~chosen schedules =
  (* Crash probe for the store path: serving must survive a registry that
     cannot persist (full disk, revoked credentials) by dropping the store,
     not the response. *)
  Faultpoint.inject "registry.crash";
  let k = key topo coll in
  let body =
    Json.to_string ~pretty:true
      (entry_json ~fingerprint:(Topology.fingerprint topo)
         ~faults:(Fault.encode (Topology.faults topo))
         ~coll ~blocks ~cost ~chosen schedules)
    ^ "\n"
  in
  let sdir = shard_dir t k in
  mkdirs sdir;
  atomic_write ~dir:sdir (shard_path t k) body;
  Counters.bump "registry.stores"

type miss_reason = Absent | Corrupt | Invalid | Slower | Transport_rejected

let miss_reason_name = function
  | Absent -> "absent"
  | Corrupt -> "corrupt"
  | Invalid -> "invalid"
  | Slower -> "slower"
  | Transport_rejected -> "transport_rejected"

type probe_result = Hit of hit | Miss of miss_reason

(* Per-reason "registry.miss.<reason>" counters distinguish cold misses from
   store corruption in scraped metrics; "registry.misses" is their sum. *)
let miss reason =
  Counters.bump ("registry.miss." ^ miss_reason_name reason);
  Counters.bump "registry.misses";
  Miss reason

let hit_counters via =
  Counters.bump "registry.hits";
  match via with
  | Exact | Rescaled -> ()
  | Transported -> Counters.bump "registry.hit.transported"
  | Scaled_cross -> Counters.bump "registry.hit.scaled_cross"

(* --- entry parsing (shared by probe and the introspection API) --------- *)

type meta = {
  m_key : string;
  m_fingerprint : string;
  m_faults : string;
  m_kind : string;
  m_root : int;
  m_peer : int;
  m_size : float;
  m_cost : float;
  m_blocks : int;
  m_chosen : string;
  m_schema : int;
  m_bytes : int;
}

(* Parse an entry file without validating the schedules against any
   topology.  Any failure — unreadable file, malformed JSON, missing
   fields, wrong schema version — is the entry being corrupt. *)
let parse_entry ~key:k path =
  match
    (* Crash probe for the read path: an entry that cannot be read is a
       counted corrupt miss, never a serving error. *)
    Faultpoint.inject "registry.crash";
    let body = read_file path in
    let j = Json.of_string body in
    let version = Json.to_int (Json.member "schema_version" j) in
    if version <> Schedule.schema_version then
      raise
        (Json.Parse_error
           (Printf.sprintf "schema version %d, this build reads %d" version
              Schedule.schema_version));
    let meta =
      {
        m_key = k;
        m_fingerprint = Json.to_str (Json.member "fingerprint" j);
        m_faults =
          (match Json.member "faults" j with
          | Json.Null -> ""
          | v -> Json.to_str v);
        m_kind = Json.to_str (Json.member "kind" j);
        m_root = Json.to_int (Json.member "root" j);
        m_peer = Json.to_int (Json.member "peer" j);
        m_size = Json.to_float (Json.member "size" j);
        m_cost = Json.to_float (Json.member "cost" j);
        m_blocks = Json.to_int (Json.member "blocks" j);
        m_chosen = Json.to_str (Json.member "chosen" j);
        m_schema = Json.to_int (Json.member "schema_version" j);
        m_bytes = String.length body;
      }
    in
    (* Probes rescale by request size / entry size and compare simulated
       times against the cost: a size that is not a positive finite byte
       count (e.g. -65536, or 1e999 parsed as inf) or a non-finite cost
       would poison both, so the entry is corrupt. *)
    if not (Float.is_finite meta.m_size && meta.m_size > 0.0) then
      raise
        (Json.Parse_error
           (Printf.sprintf "entry size %g is not a positive byte count"
              meta.m_size));
    if not (Float.is_finite meta.m_cost) then
      raise
        (Json.Parse_error
           (Printf.sprintf "entry cost %g is not finite" meta.m_cost));
    let schedules =
      List.map Schedule.of_json (Json.to_list (Json.member "schedules" j))
    in
    (meta, schedules)
  with
  | exception Json.Parse_error m -> Error m
  | exception e -> Error (Printexc.to_string e)
  | parsed -> Ok parsed

let load t k =
  let path = shard_path t k in
  if Sys.file_exists path then parse_entry ~key:k path
  else Error "no such entry"

(* --- probe: exact key, then symmetry/size near-miss -------------------- *)

(* Exact-key classification.  Pure with respect to the serving counters:
   [probe] does the bumping, so the near-miss pass can reuse this without
   double-counting. *)
let probe_exact t ~blocks topo (coll : Collective.t) k =
  match shard_path t k with
  | path when not (Sys.file_exists path) -> Miss Absent
  | path -> (
      match parse_entry ~key:k path with
      | Error _ -> Miss Corrupt
      | Ok (meta, schedules) ->
          if
            meta.m_fingerprint <> Topology.fingerprint topo
            || meta.m_kind <> Collective.kind_name coll.Collective.kind
            || meta.m_root <> coll.Collective.root
            || meta.m_peer <> coll.Collective.peer
          then
            (* A key collision with a mismatched demand is indistinguishable
               from a manually planted or damaged entry: corrupt. *)
            Miss Corrupt
          else begin
            let stored_cost = meta.m_cost and stored_blocks = meta.m_blocks in
            let scaled = meta.m_size <> coll.Collective.size in
            let schedules =
              if scaled then
                let f = coll.Collective.size /. meta.m_size in
                List.map (fun s -> Schedule.scale s f) schedules
              else schedules
            in
            (* Every hit is re-verified against the live topology model: a
               stale or hand-planted entry must prove itself before it is
               allowed to replace a fresh solve. *)
            match Validate.validate topo coll schedules with
            | Error _ -> Miss Invalid
            | exception _ -> Miss Invalid
            | Ok () ->
                let time = Sim.phases_time ~blocks topo schedules in
                (* Compare against the stored cost at the fidelity it was
                   computed at: a caller probing with a different [blocks]
                   must not demote (or rehabilitate) an entry just because
                   coarser pipelining simulates slower — that is fidelity
                   drift, not schedule drift. *)
                let comparable_time =
                  if blocks = stored_blocks then time
                  else Sim.phases_time ~blocks:stored_blocks topo schedules
                in
                if
                  (not scaled)
                  && comparable_time > stored_cost *. (1.0 +. 1e-6)
                then
                  (* The entry simulates slower than advertised (simulator
                     or link-model drift the fingerprint could not see):
                     let a fresh solve compete instead of silently serving
                     it. *)
                  Miss Slower
                else
                  Hit
                    {
                      schedules;
                      time;
                      stored_cost;
                      stored_blocks;
                      chosen = meta.m_chosen;
                      via = (if scaled then Rescaled else Exact);
                      hit_key = k;
                    }
          end)

let rooted_kind = function
  | Collective.SendRecv | Collective.Broadcast | Collective.Scatter
  | Collective.Gather | Collective.Reduce ->
      true
  | Collective.AllGather | Collective.AllToAll | Collective.ReduceScatter
  | Collective.AllReduce ->
      false

(* Candidate sources for symmetry transport: the distinct (root, peer)
   pairs whose entries — same fingerprint, kind and bucket — map onto the
   request under some element of the topology's stabilizer.  The stabilizer
   (not the full rotation group) is what keeps this sound on punctured
   topologies: an automorphism that moves the fault set would transport a
   schedule onto dead links.  Each source carries every permutation mapping
   it to the request, so an ambiguous tag signature under one rotation can
   fall back to another. *)
let transport_sources topo (coll : Collective.t) =
  if not (rooted_kind coll.Collective.kind) then []
  else begin
    let tbl = Hashtbl.create 16 in
    let order = ref [] in
    List.iter
      (fun p ->
        let q = Perm.invert p in
        let src_root = Perm.apply q coll.Collective.root in
        let src_peer =
          if coll.Collective.kind = Collective.SendRecv then
            Perm.apply q coll.Collective.peer
          else coll.Collective.peer
        in
        if not (src_root = coll.Collective.root && src_peer = coll.Collective.peer)
        then begin
          let src = (src_root, src_peer) in
          match Hashtbl.find_opt tbl src with
          | Some ps -> Hashtbl.replace tbl src (p :: ps)
          | None ->
              Hashtbl.add tbl src [ p ];
              order := src :: !order
        end)
      (Topology.stabilizer topo);
    List.rev_map (fun src -> (src, List.rev (Hashtbl.find tbl src))) !order
  end

(* Near-miss pass, entered only on an exact-key [Absent] miss.  Two
   candidate families: entries at a symmetric (root, peer) transported
   through {!Transport.schedules} (validity and cost preserved — the
   automorphism-transport fuzz law), and same-demand entries one size
   bucket away rescaled with {!Schedule.scale}.  Every candidate is
   re-validated and α-β re-simulated, and must beat the fallback ladder
   before it may serve; the fastest survivor wins. *)
let probe_near t ~blocks topo (coll : Collective.t) =
  let fp = Topology.fingerprint topo in
  let kind_name = Collective.kind_name coll.Collective.kind in
  let n = Topology.num_gpus topo in
  let bucket = size_bucket coll.Collective.size in
  let attempted = ref 0 in
  (* A source entry that exists and parses sane counts as attempted even if
     transport, validation or the fallback guard later rejects it: the
     distinction between miss.absent and miss.transport_rejected is "was
     there anything to transport". *)
  let load_source k =
    match load t k with
    | Error _ -> None
    | Ok (meta, ss) ->
        if meta.m_fingerprint <> fp || meta.m_kind <> kind_name then None
        else begin
          incr attempted;
          Some (meta, ss)
        end
  in
  let finish ~via ~hit_key (meta : meta) schedules =
    match Validate.validate topo coll schedules with
    | Error _ -> None
    | exception _ -> None
    | Ok () ->
        let time = Sim.phases_time ~blocks topo schedules in
        Some
          {
            schedules;
            time;
            stored_cost = meta.m_cost;
            stored_blocks = meta.m_blocks;
            chosen = meta.m_chosen;
            via;
            hit_key;
          }
  in
  let rescale (meta : meta) ss =
    if meta.m_size = coll.Collective.size then ss
    else
      let f = coll.Collective.size /. meta.m_size in
      List.map (fun s -> Schedule.scale s f) ss
  in
  let transported =
    List.filter_map
      (fun ((src_root, src_peer), ps) ->
        let k =
          key_of ~fingerprint:fp ~kind:kind_name ~root:src_root
            ~peer:src_peer ~bucket
        in
        match load_source k with
        | None -> None
        | Some (meta, ss) ->
            if meta.m_root <> src_root || meta.m_peer <> src_peer then None
            else (
              match
                ( Collective.make ~root:src_root ~peer:src_peer
                    coll.Collective.kind ~n ~size:meta.m_size,
                  Collective.make ~root:coll.Collective.root
                    ~peer:coll.Collective.peer coll.Collective.kind ~n
                    ~size:meta.m_size )
              with
              | exception _ -> None
              | coll_src, coll_dst -> (
                  match
                    List.find_map
                      (fun p -> Transport.schedules p coll_src coll_dst ss)
                      ps
                  with
                  | None -> None
                  | Some ss' ->
                      finish ~via:Transported ~hit_key:k meta
                        (rescale meta ss'))))
      (transport_sources topo coll)
  in
  let cross =
    List.filter_map
      (fun db ->
        let k =
          key_of ~fingerprint:fp ~kind:kind_name ~root:coll.Collective.root
            ~peer:coll.Collective.peer ~bucket:(bucket + db)
        in
        match load_source k with
        | None -> None
        | Some (meta, ss) ->
            if
              meta.m_root <> coll.Collective.root
              || meta.m_peer <> coll.Collective.peer
              || meta.m_size = coll.Collective.size
            then None
            else finish ~via:Scaled_cross ~hit_key:k meta (rescale meta ss))
      [ -1; 1 ]
  in
  match transported @ cross with
  | [] -> miss (if !attempted > 0 then Transport_rejected else Absent)
  | candidates -> (
      (* The fallback ladder is the floor any served schedule must beat: a
         transported entry slower than the always-available baseline is
         worse than missing.  Only the fastest candidate can be served, so
         the guard simulation stops as soon as its running bound admits
         that candidate: the bound never exceeds the full floor, hence the
         fastest passes the filter below either way (and if the full
         simulation would have raised later, every candidate passes and
         the fastest still wins). *)
      let admits floor t = t <= floor *. (1.0 +. 1e-6) in
      let t_min =
        List.fold_left (fun a h -> Float.min a h.time) infinity candidates
      in
      let floor_time =
        match Fallback.schedule topo coll with
        | exception _ -> None
        | phases -> (
            try
              Some
                (Sim.phases_time ~blocks
                   ~stop:(fun l -> admits l t_min)
                   topo phases)
            with _ -> None)
      in
      let accepted =
        match floor_time with
        | None -> candidates
        | Some fb -> List.filter (fun h -> admits fb h.time) candidates
      in
      match accepted with
      | [] -> miss Transport_rejected
      | first :: rest ->
          let best =
            List.fold_left
              (fun a h -> if h.time < a.time then h else a)
              first rest
          in
          hit_counters best.via;
          Hit best)

let probe t ?(blocks = 8) topo (coll : Collective.t) =
  let k = key topo coll in
  match probe_exact t ~blocks topo coll k with
  | Hit h ->
      hit_counters h.via;
      Hit h
  | Miss Absent -> probe_near t ~blocks topo coll
  | Miss r -> miss r

let lookup t ?blocks topo coll =
  match probe t ?blocks topo coll with Hit h -> Some h | Miss _ -> None

(* --- introspection (read-only; never mutates the store) ----------------- *)

let is_hex_char c = (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f')

let is_shard_name f =
  String.length f = shard_prefix_len && String.for_all is_hex_char f

let keys t =
  Array.to_list (try Sys.readdir t.root with Sys_error _ -> [||])
  |> List.concat_map (fun d ->
         let full = Filename.concat t.root d in
         if is_shard_name d && Sys.is_directory full then
           (* An existing-but-unreadable shard directory is an operator
              problem the caller must see, not an empty shard: Sys_error
              propagates. *)
           Array.to_list (Sys.readdir full)
           |> List.filter_map (fun f ->
                  if Filename.check_suffix f ".json" then
                    Some (Filename.chop_suffix f ".json")
                  else None)
         else [])
  |> List.sort compare

let length t = List.length (keys t)

type verdict =
  | Entry_ok of { simulated : float }
  | Entry_unverified of meta
  | Entry_corrupt of string
  | Entry_invalid of { meta : meta; error : string }
  | Entry_slower of { meta : meta; simulated : float }

let entry_topology topo m =
  if Topology.fingerprint topo = m.m_fingerprint then Ok (Some topo)
  else if m.m_faults = "" then Ok None
  else
    match Syccl_topology.Fault.decode m.m_faults with
    | exception Invalid_argument e ->
        Error (Printf.sprintf "recorded fault set %S: %s" m.m_faults e)
    | faults -> (
        (* A set naming hardware [topo] lacks marks a different topology,
           not a damaged entry. *)
        match Topology.puncture topo faults with
        | exception Invalid_argument _ -> Ok None
        | punctured when Topology.fingerprint punctured = m.m_fingerprint ->
            Ok (Some punctured)
        | _ -> Ok None)

let verify_entry t ?topo k =
  match load t k with
  | Error m -> Entry_corrupt m
  | Ok (meta, schedules) -> (
      match Option.map (fun topo -> entry_topology topo meta) topo with
      | Some (Error e) -> Entry_corrupt e
      | Some (Ok (Some topo)) -> (
          match
            let coll =
              Collective.make ~root:meta.m_root ~peer:meta.m_peer
                (Collective.kind_of_name meta.m_kind)
                ~n:(Topology.num_gpus topo) ~size:meta.m_size
            in
            Validate.validate topo coll schedules
          with
          | exception e -> Entry_invalid { meta; error = Printexc.to_string e }
          | Error e -> Entry_invalid { meta; error = e }
          | Ok () ->
              (* Re-simulate at the entry's store-time fidelity so the
                 comparison is like-for-like with the stored cost. *)
              let simulated = Sim.phases_time ~blocks:meta.m_blocks topo schedules in
              if simulated > meta.m_cost *. (1.0 +. 1e-6) then
                Entry_slower { meta; simulated }
              else Entry_ok { simulated })
      | _ -> Entry_unverified meta)

(* --- maintenance: compaction, eviction ------------------------------------ *)

let remove_entry t k =
  let p = shard_path t k in
  let exists = Sys.file_exists p in
  if exists then (try Sys.remove p with Sys_error _ -> ());
  exists

type compact_stats = {
  corrupt_removed : int;
  dominated_removed : int;
  evicted : int;
  kept : int;
  kept_bytes : int;
}

(* Entries eligible for dominated-entry pruning: a healthy rooted
   collective (other than SendRecv) at a given (fingerprint, kind, bucket,
   size, fidelity) is servable for {e any} root by transporting the
   cheapest entry of the class — the rotation group of a healthy topology
   is transitive on roots.  SendRecv is excluded because transitivity on
   (root, peer) {e pairs} is not guaranteed, and faulted entries because
   the stabilizer may not reach every root. *)
let prunable m =
  m.m_faults = ""
  &&
  match Collective.kind_of_name m.m_kind with
  | Collective.Broadcast | Collective.Scatter | Collective.Gather
  | Collective.Reduce ->
      true
  | _ -> false
  | exception _ -> false

let compact t ?max_entries ?max_bytes ?(last_used = fun _ -> None) () =
  let corrupt_removed = ref 0 in
  let metas =
    List.filter_map
      (fun k ->
        match load t k with
        | Ok (m, _) -> Some m
        | Error _ ->
            (* Compaction is the one explicitly-invoked pass allowed to
               delete: a corrupt entry can never serve again, only recount
               as registry.corrupt forever. *)
            if remove_entry t k then incr corrupt_removed;
            None)
      (keys t)
  in
  let groups = Hashtbl.create 64 in
  List.iter
    (fun m ->
      if prunable m then begin
        let g =
          (m.m_fingerprint, m.m_kind, size_bucket m.m_size, m.m_size, m.m_blocks)
        in
        let cur = try Hashtbl.find groups g with Not_found -> [] in
        Hashtbl.replace groups g (m :: cur)
      end)
    metas;
  let dominated = Hashtbl.create 16 in
  Hashtbl.iter
    (fun _ ms ->
      match ms with
      | [] | [ _ ] -> ()
      | first :: rest ->
          let best =
            List.fold_left
              (fun a m ->
                if
                  m.m_cost < a.m_cost
                  || (m.m_cost = a.m_cost && m.m_key < a.m_key)
                then m
                else a)
              first rest
          in
          List.iter
            (fun m ->
              if m.m_key <> best.m_key then Hashtbl.replace dominated m.m_key ())
            ms)
    groups;
  let dominated_removed =
    Hashtbl.fold
      (fun k () n -> if remove_entry t k then n + 1 else n)
      dominated 0
  in
  let metas = List.filter (fun m -> not (Hashtbl.mem dominated m.m_key)) metas in
  (* LRU eviction, oldest first.  Last use comes from the caller (audit
     trail hit provenance); entries never hit fall back to file mtime. *)
  let stamp m =
    match last_used m.m_key with
    | Some ts -> ts
    | None -> (
        try (Unix.stat (shard_path t m.m_key)).Unix.st_mtime with _ -> 0.0)
  in
  let by_age =
    List.sort compare (List.map (fun m -> (stamp m, m.m_key, m.m_bytes)) metas)
  in
  let total_bytes = List.fold_left (fun a (_, _, b) -> a + b) 0 by_age in
  let over n bytes =
    (match max_entries with Some m -> n > m | None -> false)
    || match max_bytes with Some m -> bytes > m | None -> false
  in
  let rec evict acc n bytes = function
    | (_, k, b) :: rest when over n bytes ->
        ignore (remove_entry t k);
        evict (acc + 1) (n - 1) (bytes - b) rest
    | _ -> (acc, n, bytes)
  in
  let evicted, kept, kept_bytes =
    evict 0 (List.length by_age) total_bytes by_age
  in
  {
    corrupt_removed = !corrupt_removed;
    dominated_removed;
    evicted;
    kept;
    kept_bytes;
  }

let destroy t =
  let rec rm path =
    match Sys.is_directory path with
    | true ->
        Array.iter
          (fun f -> rm (Filename.concat path f))
          (try Sys.readdir path with Sys_error _ -> [||]);
        (try Unix.rmdir path with Unix.Unix_error _ -> ())
    | false -> ( try Sys.remove path with Sys_error _ -> ())
    | exception Sys_error _ -> ()
  in
  rm t.root
