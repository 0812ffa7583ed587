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
module Cache = Syccl_util.Cache
module Fault = Syccl_topology.Fault

type t = { root : string }

let dir t = t.root

let rec mkdirs path =
  if path <> "" && path <> "/" && not (Sys.file_exists path) then begin
    mkdirs (Filename.dirname path);
    try Unix.mkdir path 0o755
    with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* Registry files are read into one buffer per domain, reused by every
   probe: an unchanged entry is compared in place with the bytes its
   memoized verdict was judged from, so a repeated probe allocates no
   string. *)
let read_buffer = Domain.DLS.new_key (fun () -> ref (Bytes.create 65536))

let read_into path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let len = in_channel_length ic in
      let buf = Domain.DLS.get read_buffer in
      if Bytes.length !buf < len then
        buf := Bytes.create (max len (2 * Bytes.length !buf));
      really_input ic !buf 0 len;
      (!buf, len))

(* Unique-enough temp names without Random: pid + a process-wide ticket.
   Collisions across processes differ in pid; within a process in ticket. *)
let ticket = Atomic.make 0

(* rename is atomic within a directory: a concurrent reader sees either the
   old complete file or the new complete file, never a torn one.  The temp
   file lives in the same directory as its target so the rename never
   crosses a filesystem boundary.  [close_out] is the final flush — for a
   body under the channel buffer, the only write — so its error (ENOSPC,
   EIO, EDQUOT) must fail the store before the rename can publish a short
   file; on any failure the temp file is removed, never left behind. *)
let atomic_write ~dir:d path body =
  let tmp =
    Filename.concat d
      (Printf.sprintf ".tmp.%d.%d" (Unix.getpid ())
         (Atomic.fetch_and_add ticket 1))
  in
  let oc = open_out tmp in
  match
    output_string oc body;
    close_out oc;
    Sys.rename tmp path
  with
  | () -> ()
  | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      close_out_noerr oc;
      (try Sys.remove tmp with Sys_error _ -> ());
      Printexc.raise_with_backtrace e bt

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
    match
      let buf, len = read_into path in
      Json.of_string (Bytes.sub_string buf 0 len)
    with
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

(* Power-of-two buckets are the registry's reuse granularity: a stored
   schedule rescales exactly ({!Schedule.scale}) to any size whose chunk
   proportions match, and every rescaled hit is re-validated and
   re-simulated before it may serve.

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

let key_with ~fingerprint (coll : Collective.t) =
  key_of ~fingerprint
    ~kind:(Collective.kind_name coll.Collective.kind)
    ~root:coll.Collective.root ~peer:coll.Collective.peer
    ~bucket:(size_bucket coll.Collective.size)

let key topo coll = key_with ~fingerprint:(Topology.fingerprint topo) coll

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
let count = function
  | Hit h -> (
      Counters.bump "registry.hits";
      match h.via with
      | Exact | Rescaled -> ()
      | Transported -> Counters.bump "registry.hit.transported"
      | Scaled_cross -> Counters.bump "registry.hit.scaled_cross")
  | Miss reason ->
      Counters.bump ("registry.miss." ^ miss_reason_name reason);
      Counters.bump "registry.misses"

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

(* Parse the bytes stored under key [k] without validating the schedules
   against any topology.  Any failure — malformed JSON, missing fields,
   wrong schema version, or a demand whose own key is not [k] — is the
   entry being corrupt. *)
let parse_body ~key:k body =
  match
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
    (* {!store} writes the key and these fields from one topology and
       collective, so an honest entry always matches its key.  One that
       does not was copied, planted or damaged, and no reader may take it
       for the demand its key names. *)
    if
      key_of ~fingerprint:meta.m_fingerprint ~kind:meta.m_kind
        ~root:meta.m_root ~peer:meta.m_peer ~bucket:(size_bucket meta.m_size)
      <> k
    then raise (Json.Parse_error "entry is stored under another demand's key");
    let schedules =
      List.map Schedule.of_json (Json.to_list (Json.member "schedules" j))
    in
    (meta, schedules)
  with
  | exception Json.Parse_error m -> Error m
  | exception e -> Error (Printexc.to_string e)
  | parsed -> Ok parsed

(* --- reading: one path for the probe and the introspection API ---------- *)

(* What a read found at one path. *)
type observation = Missing | Unreadable of string | Read of string

(* The first [len] bytes of [b] equal [s], compared a word at a time. *)
let same_bytes b len s =
  len = String.length s
  &&
  let rec go i =
    if i + 8 <= len then
      Int64.equal (Bytes.get_int64_ne b i) (String.get_int64_ne s i)
      && go (i + 8)
    else i >= len || (Bytes.get b i = String.get s i && go (i + 1))
  in
  go 0

(* Read one entry path: existence check, then the registry.crash fault
   point, then the read.  A probe draws that point as often and in the same
   order whether or not its verdict is memoized, and an entry that cannot
   be read is a counted corrupt miss, never a serving error.  When [prev]
   holds the same bytes it is returned as is. *)
let observe ?prev path =
  if not (Sys.file_exists path) then Missing
  else
    match
      Faultpoint.inject "registry.crash";
      read_into path
    with
    | exception e -> Unreadable (Printexc.to_string e)
    | buf, len -> (
        match prev with
        | Some (Read s as o) when same_bytes buf len s -> o
        | _ -> Read (Bytes.sub_string buf 0 len))

(* An unreadable entry is a corrupt miss whatever the error said. *)
let same_observation a b =
  match (a, b) with
  | Read x, Read y -> String.equal x y
  | Missing, Missing | Unreadable _, Unreadable _ -> true
  | (Missing | Unreadable _ | Read _), _ -> false

let load t k =
  match observe (shard_path t k) with
  | Missing -> Error "no such entry"
  | Unreadable e -> Error e
  | Read body -> parse_body ~key:k body

(* --- admission: the one judgement of a stored schedule --------------------- *)

(* Schedules made for [size] (an entry as stored, or transported), rescaled
   to [coll]'s size, validated on the live topology and re-simulated at
   [blocks].  A stale, transported or hand-planted schedule must prove
   itself here before it may replace a fresh solve; a validator that
   raises fails the schedule. *)
let admit ~blocks topo (coll : Collective.t) ~size schedules =
  let schedules =
    if size = coll.Collective.size then schedules
    else
      let f = coll.Collective.size /. size in
      List.map (fun s -> Schedule.scale s f) schedules
  in
  match Validate.validate topo coll schedules with
  | Error e -> Error e
  | exception e -> Error (Printexc.to_string e)
  | Ok () -> Ok (schedules, Sim.phases_time ~blocks topo schedules)

type admitted = {
  meta : meta;
  topo : Topology.t;
  coll : Collective.t;
  schedules : Schedule.t list;
  simulated : float;
}

type verdict =
  | Entry_ok of admitted
  | Entry_unverified of meta
  | Entry_corrupt of string
  | Entry_invalid of { meta : meta; error : string }
  | Entry_slower of admitted

(* A parsed entry judged for [coll] on [topo].  An entry served at its
   stored size must also keep its stored cost, compared at the fidelity it
   was computed at: a caller judging at another [blocks] must not demote
   (or rehabilitate) an entry just because coarser pipelining simulates
   slower — that is fidelity drift, not schedule drift.  A slower entry
   shows simulator or link-model drift the fingerprint could not see. *)
let judge ~blocks topo (coll : Collective.t) (meta, schedules) =
  match admit ~blocks topo coll ~size:meta.m_size schedules with
  | Error error -> Entry_invalid { meta; error }
  | Ok (schedules, simulated) ->
      let a = { meta; topo; coll; schedules; simulated } in
      let at_stored_blocks () =
        if blocks = meta.m_blocks then simulated
        else Sim.phases_time ~blocks:meta.m_blocks topo schedules
      in
      if
        meta.m_size = coll.Collective.size
        && at_stored_blocks () > meta.m_cost *. (1.0 +. 1e-6)
      then Entry_slower a
      else Entry_ok a

let hit_of ~via ~hit_key a =
  {
    schedules = a.schedules;
    time = a.simulated;
    stored_cost = a.meta.m_cost;
    stored_blocks = a.meta.m_blocks;
    chosen = a.meta.m_chosen;
    via;
    hit_key;
  }

(* --- probe: judge what was observed ----------------------------------------- *)

(* The request's own entry. *)
let judge_exact ~blocks topo (coll : Collective.t) k = function
  | Missing -> Miss Absent
  | Unreadable _ -> Miss Corrupt
  | Read body -> (
      match parse_body ~key:k body with
      | Error _ -> Miss Corrupt
      | Ok entry -> (
          match judge ~blocks topo coll entry with
          | Entry_ok a ->
              let via =
                if a.meta.m_size = coll.Collective.size then Exact else Rescaled
              in
              Hit (hit_of ~via ~hit_key:k a)
          | Entry_slower _ -> Miss Slower
          | Entry_invalid _ -> Miss Invalid
          | Entry_corrupt _ | Entry_unverified _ -> Miss Corrupt))

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

(* A near-miss source entry: the same demand at a symmetric (root, peer),
   with every permutation mapping it onto the request, or the same demand
   one size bucket away.  An entry parsed under a source's key is that
   source's demand: {!parse_body} checks the key. *)
type source =
  | Symmetric of { key : string; perms : Perm.t list }
  | Adjacent of { key : string }

let source_key = function Symmetric { key; _ } | Adjacent { key } -> key

(* The near-miss pass's sources in the order it reads them: transport
   sources, then the buckets below and above. *)
let near_sources ~fingerprint topo (coll : Collective.t) =
  let kind = Collective.kind_name coll.Collective.kind in
  let bucket = size_bucket coll.Collective.size in
  List.map
    (fun ((root, peer), perms) ->
      Symmetric { key = key_of ~fingerprint ~kind ~root ~peer ~bucket; perms })
    (transport_sources topo coll)
  @ List.map
      (fun db ->
        Adjacent
          {
            key =
              key_of ~fingerprint ~kind ~root:coll.Collective.root
                ~peer:coll.Collective.peer ~bucket:(bucket + db);
          })
      [ -1; 1 ]

(* Near-miss pass, entered only when the exact entry is missing.  Two
   candidate families: entries at a symmetric (root, peer) transported
   through {!Transport.schedules} (validity and cost preserved — the
   automorphism-transport fuzz law), and same-demand entries one size
   bucket away.  Every candidate is admitted (rescaled, re-validated and
   α-β re-simulated) and must beat the fallback ladder before it may
   serve; the fastest survivor wins. *)
let judge_near ~blocks topo (coll : Collective.t) observed =
  let n = Topology.num_gpus topo in
  let kind = coll.Collective.kind in
  (* A source entry that exists and parses counts as attempted even if
     transport, validation or the fallback guard later rejects it: the
     distinction between miss.absent and miss.transport_rejected is "was
     there anything to transport". *)
  let attempted = ref 0 in
  let candidate (src, obs) =
    match obs with
    | Missing | Unreadable _ -> None
    | Read body -> (
        let k = source_key src in
        match parse_body ~key:k body with
        | Error _ -> None
        | Ok (meta, ss) -> (
            incr attempted;
            let moved =
              match src with
              | Adjacent _ -> Some (Scaled_cross, ss)
              | Symmetric { perms; _ } -> (
                  let at ~root ~peer =
                    Collective.make ~root ~peer kind ~n ~size:meta.m_size
                  in
                  match
                    ( at ~root:meta.m_root ~peer:meta.m_peer,
                      at ~root:coll.Collective.root ~peer:coll.Collective.peer )
                  with
                  | exception _ -> None
                  | c_src, c_dst ->
                      List.find_map
                        (fun p -> Transport.schedules p c_src c_dst ss)
                        perms
                      |> Option.map (fun ss -> (Transported, ss)))
            in
            match moved with
            | None -> None
            | Some (via, ss) -> (
                match admit ~blocks topo coll ~size:meta.m_size ss with
                | Error _ -> None
                | Ok (schedules, simulated) ->
                    Some
                      (hit_of ~via ~hit_key:k
                         { meta; topo; coll; schedules; simulated }))))
  in
  match List.filter_map candidate observed with
  | [] -> Miss (if !attempted > 0 then Transport_rejected else Absent)
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
      | [] -> Miss Transport_rejected
      | first :: rest ->
          Hit
            (List.fold_left
               (fun a h -> if h.time < a.time then h else a)
               first rest))

(* --- the probe memo ------------------------------------------------------- *)

(* A verdict and everything it was judged from.  The near-miss sources are
   observed only when the exact entry is missing; otherwise [near] is
   empty. *)
type memo = {
  exact : observation;
  near : (source * observation) list;
  verdict : probe_result;
}

(* Retained bytes, bounded as a constant: each file read is counted twice,
   once for its bytes and once for what the verdict decoded from it, plus a
   fixed overhead per observed path — an estimate that tracked the heap
   reachable from the memo within 3% on the perfbench serve workloads. *)
let memo_capacity = 32 * 1024 * 1024

let memo_weight m =
  let cost = function Read s -> 64 + (2 * String.length s) | _ -> 64 in
  List.fold_left (fun a (_, o) -> a + cost o) (cost m.exact) m.near

let memo : (string * string * Collective.t * int, memo) Cache.t =
  Cache.create ~capacity:memo_capacity ~weight:memo_weight ~name:"cache.probe"
    ()

let reset_memo () = Cache.clear memo

(* Every served hit gets its own chunk arrays, the one mutable part of a
   schedule, so no caller can alter a memoized verdict. *)
let served = function
  | Hit h ->
      Hit
        {
          h with
          schedules =
            List.map
              (fun (s : Schedule.t) ->
                { s with Schedule.chunks = Array.copy s.Schedule.chunks })
              h.schedules;
        }
  | Miss _ as m -> m

(* Observe, then judge — or replay.  The verdict is a deterministic
   function of the bytes observed (or each file's absence), the topology
   through its fingerprint, the collective and [blocks]: all four are
   either the memo key or compared byte for byte, so a replayed verdict is
   the one judging would return.  On a replay the stored source list is
   re-observed instead of recomputed: it is a function of the topology and
   the collective, given that the exact entry is missing, and that
   absence is the first observation. *)
let probe t ?(blocks = 8) topo (coll : Collective.t) =
  let fingerprint = Topology.fingerprint topo in
  let k = key_with ~fingerprint coll in
  let mkey = (t.root, fingerprint, coll, blocks) in
  let prev = Cache.find_opt memo mkey in
  let exact =
    observe ?prev:(Option.map (fun m -> m.exact) prev) (shard_path t k)
  in
  let near =
    match (exact, prev) with
    | (Unreadable _ | Read _), _ -> []
    | Missing, Some { exact = Missing; near; _ } ->
        List.map
          (fun (src, o) ->
            (src, observe ~prev:o (shard_path t (source_key src))))
          near
    | Missing, _ ->
        List.map
          (fun src -> (src, observe (shard_path t (source_key src))))
          (near_sources ~fingerprint topo coll)
  in
  let verdict =
    match prev with
    | Some m
      when same_observation m.exact exact
           && List.for_all2
                (fun (_, a) (_, b) -> same_observation a b)
                m.near near ->
        m.verdict
    | _ -> (
        if Option.is_some prev then Counters.bump "cache.probe.stale";
        match
          match exact with
          | Missing -> judge_near ~blocks topo coll near
          | Unreadable _ | Read _ -> judge_exact ~blocks topo coll k exact
        with
        | verdict ->
            Cache.put memo mkey { exact; near; verdict };
            verdict
        | exception _ ->
            (* A judge that raises (the sim.crash fault point, a simulator
               bug) costs the hit, never the response.  Its verdict says
               nothing about the bytes, so it is not memoized: the entry
               is judged afresh once the fault clears. *)
            Miss Invalid)
  in
  count verdict;
  served verdict

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

(* The entry judged as its own demand on the topology it was stored for,
   at its stored fidelity. *)
let verify_entry t ?topo k =
  match load t k with
  | Error m -> Entry_corrupt m
  | Ok ((meta, _) as entry) -> (
      match Option.map (fun topo -> entry_topology topo meta) topo with
      | Some (Error e) -> Entry_corrupt e
      | Some (Ok (Some topo)) -> (
          match
            Collective.make ~root:meta.m_root ~peer:meta.m_peer
              (Collective.kind_of_name meta.m_kind)
              ~n:(Topology.num_gpus topo) ~size:meta.m_size
          with
          | exception e -> Entry_invalid { meta; error = Printexc.to_string e }
          | coll -> judge ~blocks:meta.m_blocks topo coll entry)
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
