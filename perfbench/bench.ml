(* The benchmark program: one workload, one seed, one process.

   bench.exe --workload NAME --seed N --seconds S --trace 0|1

   A run sets up (registry, audit sink, request list and, for serve_*, the
   registry warm-up), serves the seeded request list through the public
   serving API as one closed-loop client, checks every served schedule,
   and prints a census, the digest and the metrics.  The last stdout line
   is the JSON result.  With --trace 1 it instead serves every request
   twice, untraced and traced, and reduces the spans into per-layer
   metrics. *)

module H = Perfbench.Harness
module Serve = Syccl_serve.Serve
module Registry = Syccl_serve.Registry
module Audit = Syccl_serve.Audit
module Request = Syccl_serve.Request
module Synthesizer = Syccl.Synthesizer
module Counters = Syccl_util.Counters
module Trace = Syccl_util.Trace
module Clock = Syccl_util.Clock
module C = Syccl_collective.Collective
module Sim = Syccl_sim.Sim
module Validate = Syccl_sim.Validate
module Msccl = Syccl_sim.Msccl
module Interp = Syccl_sim.Msccl_interp
module Fallback = Syccl_baselines.Fallback
module Fleet = Syccl_serve.Fleet
module Refcheck = Syccl_check.Refcheck

(* --- scratch space inside the working directory --------------------------- *)

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path

let rec copy_tree src dst =
  if Sys.is_directory src then begin
    Unix.mkdir dst 0o755;
    Array.iter
      (fun f -> copy_tree (Filename.concat src f) (Filename.concat dst f))
      (Sys.readdir src)
  end
  else begin
    let ic = open_in_bin src in
    let body = really_input_string ic (in_channel_length ic) in
    close_in ic;
    let oc = open_out_bin dst in
    output_string oc body;
    close_out oc
  end

let work_root = "_perfbench"

(* --- one request ------------------------------------------------------------ *)

(* What `syccl lower --check` runs inside Serve: lower, round-trip and
   replay every phase, then the reference interpreter. *)
let lower_hook channels (r : Request.t) (o : Synthesizer.outcome) =
  match
    Interp.check_lowering ~channels ~coll:r.Request.coll o.Synthesizer.schedules
  with
  | Error _ as e -> e
  | Ok () ->
      Result.map_error
        (fun e -> "reference checker divergence: " ^ e)
        (Refcheck.covers r.Request.topo r.Request.coll o.Synthesizer.schedules)

let phase_name (it : H.item) i = Printf.sprintf "syccl-%s-%d" it.H.collective i

(* The XML `syccl lower` writes, into a buffer instead of a file. *)
let emit_xml buf (it : H.item) (o : Serve.outcome) =
  List.iteri
    (fun i (phase, s) ->
      Buffer.add_string buf
        (Msccl.emit
           (Msccl.lower ~channels:it.H.channels ~name:(phase_name it i)
              ~coll:phase s)))
    (List.combine (C.phases it.H.req.Request.coll)
       o.Serve.synth.Synthesizer.schedules)

type ctx = {
  workload : H.workload;
  registries : Registry.t array;  (** one per synth_cold pass *)
  audit : Audit.t;
  items : H.item array;
  xml : Buffer.t;
}

let serve_one ctx (it : H.item) =
  let registry = ctx.registries.(it.H.pass) and audit = ctx.audit in
  match ctx.workload with
  | H.Synth_cold ->
      Synthesizer.reset_caches ();
      Serve.run ~registry ~audit it.H.req
  | H.Serve_hits -> Serve.run ~registry ~audit it.H.req
  | H.Serve_lower ->
      let o = Serve.run ~registry ~audit ~lower:(lower_hook it.H.channels) it.H.req in
      Buffer.clear ctx.xml;
      emit_xml ctx.xml it o;
      o

(* --- set-up ----------------------------------------------------------------- *)

let open_ctx workload ~dir ~seed ~seconds =
  Unix.mkdir dir 0o755;
  let items = Array.of_list (H.requests workload ~seed ~seconds) in
  let passes = Array.fold_left (fun a (it : H.item) -> max a (it.H.pass + 1)) 1 items in
  let registries =
    Array.init passes (fun p ->
        Registry.open_dir (Filename.concat dir (Printf.sprintf "registry%d" p)))
  in
  let audit = Audit.open_file (Filename.concat dir "audit.jsonl") in
  { workload; registries; audit; items; xml = Buffer.create 65536 }

(* `syccl warm --fleet` for the serving family, from cold caches: its 24
   anchors served through the batch pipeline.  True when every anchor was
   synthesized at the Full rung and stored. *)
let warm ctx =
  match ctx.workload with
  | H.Synth_cold -> true
  | H.Serve_hits | H.Serve_lower ->
      Synthesizer.reset_caches ();
      let st =
        Fleet.warm ~registry:ctx.registries.(0) ~audit:ctx.audit ~config:H.config
          ~families:[ H.serve_family ] ()
      in
      st.Fleet.failed = 0 && st.Fleet.stored = st.Fleet.anchors

(* Set up [reps] times from scratch, each in a fresh directory; keep the
   last.  Returns the context, every set-up time, and whether every
   warm-up stored all its anchors.  Each set-up starts from an empty minor
   heap, as a new job does, rather than collecting the garbage of the one
   before it. *)
let setup workload ~dir ~seed ~seconds ~reps =
  let rec go k acc_t acc_ok =
    let sub = Filename.concat dir (Printf.sprintf "setup%d" k) in
    Gc.minor ();
    let t0 = Clock.now () in
    let ctx = open_ctx workload ~dir:sub ~seed ~seconds in
    let ok = warm ctx in
    let t = Clock.now () -. t0 in
    if k + 1 < reps then begin
      rm_rf sub;
      go (k + 1) (t :: acc_t) (acc_ok && ok)
    end
    else (ctx, List.rev (t :: acc_t), acc_ok && ok)
  in
  go 0 [] true

(* --- observations ----------------------------------------------------------- *)

(* What a run keeps of a served outcome.  The schedules are checked and
   dropped right after their request, so a long run's memory is the
   program's, not the harness's. *)
type served = {
  chosen : string;
  time : float;  (** simulated cost, seconds *)
  busbw : float;
  rung : string;
  from_registry : bool;
  sketches : int;
  combos : int;
}

type obs = {
  latency : float;
  served : served option;  (** [None] when serving raised *)
  error : string option;  (** raised, or failed the output checks *)
  probe : string;  (** ["hit.<via>"] or ["miss.<reason>"] *)
  alloc_mw : float;
  major : int;
  counters : (string * float) list;  (** counter deltas over the request *)
  lp_pivots : float;
  milp_limited : int;
}

let miss_reasons =
  [ "absent"; "corrupt"; "invalid"; "slower"; "transport_rejected" ]

(* The shortest per-model MILP limit the synthesizer configures (the
   coarse step caps it at 2 s): a solve lasting that long may have been
   cut by the clock, which makes its schedule depend on machine speed. *)
let milp_limit = Float.min 2.0 H.config.Synthesizer.milp_time_limit

(* Histogram buckets are 2^(1/4) wide, so counting the buckets whose upper
   edge exceeds the limit over-reports by at most one bucket: a flag, never
   a miss. *)
let limited_solves () =
  List.fold_left
    (fun a (upper, n) -> if upper > milp_limit then a + n else a)
    0
    (Counters.hist_buckets (Counters.histogram "milp.solve_s"))

let probe_class (o : Serve.outcome) counters =
  match o.Serve.source with
  | Serve.From_registry { via; _ } -> "hit." ^ Registry.via_name via
  | Serve.From_synthesis -> (
      match
        List.find_opt
          (fun r -> List.assoc_opt ("registry.miss." ^ r) counters > Some 0.0)
          miss_reasons
      with
      | Some r -> "miss." ^ r
      | None -> "miss.none")

let wanted_counters =
  [ "milp.solves"; "milp.nodes"; "milp.flow_certified"; "lp.warm_hits";
    "lp.warm_misses"; "cache.subsolve.hits"; "cache.subsolve.misses" ]
  @ List.map (fun r -> "registry.miss." ^ r) miss_reasons

(* The output oracle, outside the timed region: the reference interpreter
   (independent of Validate) must accept every served schedule, and
   serve_lower's own lowering check must have passed. *)
let check (it : H.item) (o : Serve.outcome) =
  match
    Refcheck.covers it.H.req.Request.topo it.H.req.Request.coll
      o.Serve.synth.Synthesizer.schedules
  with
  | Error e -> Some ("refcheck: " ^ e)
  | Ok () -> (
      match o.Serve.lower with
      | Some (Error e) -> Some ("lowering: " ^ e)
      | None when it.H.channels > 0 -> Some "lowering check did not run"
      | _ -> None)

(* Time one request, then check what it served.  Counters are zeroed
   before it, so what they read afterwards is this request's work.  The
   outcome is returned for the traced run's decomposition. *)
let observe ?(wrap = fun f -> f ()) ctx (it : H.item) =
  (* A cold request is a new job: it starts from a collected heap, so its
     time does not depend on the garbage its predecessors in the shuffled
     order left behind. *)
  if ctx.workload = H.Synth_cold then Gc.compact ();
  Counters.reset ();
  let g0 = Gc.quick_stat () in
  let t0 = Clock.now () in
  let r = wrap (fun () -> match serve_one ctx it with o -> Ok o | exception e -> Error e) in
  let latency = Clock.now () -. t0 in
  let g1 = Gc.quick_stat () in
  let counters = List.map (fun n -> (n, Counters.value n)) wanted_counters in
  let alloc g = g.Gc.minor_words +. g.Gc.major_words -. g.Gc.promoted_words in
  let served, error, probe =
    match r with
    | Ok o ->
        let s = o.Serve.synth in
        ( Some
            {
              chosen = s.Synthesizer.chosen;
              time = s.Synthesizer.time;
              busbw = s.Synthesizer.busbw;
              rung = Synthesizer.level_name s.Synthesizer.degraded;
              from_registry = o.Serve.source <> Serve.From_synthesis;
              sketches = s.Synthesizer.num_sketches;
              combos = s.Synthesizer.num_combos;
            },
          check it o,
          probe_class o counters )
    | Error e -> (None, Some (Printexc.to_string e), "raised")
  in
  ( {
    latency;
    served;
    error;
    probe;
    alloc_mw = (alloc g1 -. alloc g0) /. 1e6;
    major = g1.Gc.major_collections - g0.Gc.major_collections;
    counters;
    lp_pivots = (Counters.hist_stats (Counters.histogram "lp.pivots_per_solve")).Counters.sum;
    milp_limited = limited_solves ();
  },
    Result.to_option r )

let counter ob name = Option.value ~default:0.0 (List.assoc_opt name ob.counters)

(* --- summary ---------------------------------------------------------------- *)

type summary = {
  n : int;
  errors : int;
  nondeterministic : int;  (** repeated keys served a different schedule *)
  digest : string;
  latencies : float list;
  busbw : float list;
  full : int;
  limited : int;
}

let summarize (items : H.item array) (obs : obs array) =
  let errors = ref 0 and full = ref 0 and limited = ref 0 in
  let nondet = ref 0 in
  let seen = Hashtbl.create 256 in
  let lines = Buffer.create 4096 in
  let busbw = ref [] in
  Array.iteri
    (fun i ob ->
      let it = items.(i) in
      limited := !limited + ob.milp_limited;
      (match ob.error with
      | Some e ->
          incr errors;
          Printf.printf "error: request %d (%s %s %s): %s\n" i it.H.family
            it.H.collective it.H.cls e
      | None -> ());
      match ob.served with
      | None -> Buffer.add_string lines (Printf.sprintf "%d;raised\n" i)
      | Some s ->
          let key = Request.key it.H.req in
          let line = Printf.sprintf "%s;%s;%h" key s.chosen s.time in
          Buffer.add_string lines line;
          Buffer.add_char lines '\n';
          (match Hashtbl.find_opt seen key with
          | Some l when l <> line -> incr nondet
          | Some _ -> ()
          | None -> Hashtbl.add seen key line);
          if s.rung = Synthesizer.level_name Synthesizer.Full then incr full;
          busbw := s.busbw :: !busbw)
    obs;
  {
    n = Array.length obs;
    errors = !errors;
    nondeterministic = !nondet;
    digest = Digest.to_hex (Digest.string (Buffer.contents lines));
    latencies = Array.to_list (Array.map (fun o -> o.latency) obs);
    busbw = List.rev !busbw;
    full = !full;
    limited = !limited;
  }

let distinct_keys (items : H.item array) =
  let distinct = Hashtbl.create 256 in
  Array.iter (fun (it : H.item) -> Hashtbl.replace distinct (Request.key it.H.req) ()) items;
  Hashtbl.length distinct

(* Share of requests whose key an earlier request of the run already had. *)
let repeat_frac items =
  1.0 -. (float_of_int (distinct_keys items) /. float_of_int (Array.length items))

let print_census (items : H.item array) (obs : obs array) sm =
  let count f =
    let tbl = Hashtbl.create 16 in
    Array.iteri
      (fun i it ->
        let k = f it obs.(i) in
        Hashtbl.replace tbl k (1 + Option.value ~default:0 (Hashtbl.find_opt tbl k)))
      items;
    String.concat " "
      (List.map
         (fun (k, c) -> Printf.sprintf "%s=%d" k c)
         (List.sort compare (Hashtbl.fold (fun k c a -> (k, c) :: a) tbl [])))
  in
  let rung _ ob = match ob.served with Some s -> s.rung | None -> "raised" in
  Printf.printf "census: requests %d, distinct keys %d, serve.repeat_frac %.4f\n" sm.n
    (distinct_keys items) (repeat_frac items);
  Printf.printf "census: family     %s\n" (count (fun it _ -> it.H.family));
  Printf.printf "census: collective %s\n" (count (fun it _ -> it.H.collective));
  Printf.printf "census: class      %s\n" (count (fun it _ -> it.H.cls));
  Printf.printf "census: probe      %s\n" (count (fun _ ob -> ob.probe));
  Printf.printf "census: rung       %s\n" (count rung);
  Printf.printf "census: channels   %s\n"
    (count (fun it _ -> string_of_int it.H.channels));
  let groups = Hashtbl.create 32 in
  Array.iteri
    (fun i (it : H.item) ->
      let k =
        if it.H.cls = "cold" then it.H.family
        else
          Printf.sprintf "%s/%s/%.0fK" it.H.collective it.H.cls
            (it.H.req.Request.coll.C.size /. 1024.0)
      in
      Hashtbl.replace groups k
        (obs.(i).latency :: Option.value ~default:[] (Hashtbl.find_opt groups k)))
    items;
  Printf.printf "census: p50 ms     %s\n"
    (String.concat " "
       (List.map
          (fun (k, ls) -> Printf.sprintf "%s=%.2f" k (1e3 *. H.median ls))
          (List.sort compare (Hashtbl.fold (fun k v a -> (k, v) :: a) groups []))));
  Printf.printf "census: milp.time_limited %d (solves of >= %gs)%s\n" sm.limited
    milp_limit
    (if sm.limited > 0 then
       "  <-- FLAG: schedules may depend on machine speed"
     else "")

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %f" (fun kb -> kb /. 1024.0)
    | _ -> scan ()
    | exception End_of_file -> nan
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

let serve_all ctx = Array.map (fun it -> fst (observe ctx it)) ctx.items

(* --- traced run -------------------------------------------------------------- *)

let bench_span ~idx ?(part = false) name f =
  Trace.with_span ~cat:"bench"
    ~args:[ ("idx", string_of_int idx); ("part", if part then "1" else "0") ]
    name f

type decomp = {
  mutable entry_kb : float;
  mutable events : int;
  mutable steps : int;
  mutable xml_kb : float;
}

(* Re-run, on the request's own inputs, the public calls the request made
   inside Serve, each under a benchmark span named after its metric.
   Spans marked [part] are taken out of the request's remainder; the load,
   validation, re-simulation and fallback guard of a hit are inside its
   probe, so only the probe is.  A lowered request lowers each phase twice
   and emits it three times (check_lowering's round trip, then the XML it
   serves), so the decomposition does the same. *)
let decompose ctx ~scratch ~idx (it : H.item) outcome d =
  match outcome with
  | None -> ()
  | Some (o : Serve.outcome) ->
      let registry = ctx.registries.(it.H.pass) in
      let topo = it.H.req.Request.topo and coll = it.H.req.Request.coll in
      let s = o.Serve.synth in
      let schedules = s.Synthesizer.schedules in
      let blocks = H.config.Synthesizer.blocks in
      (match o.Serve.source with
      | Serve.From_registry { hit_key; via; _ } ->
          let name =
            match via with
            | Registry.Exact -> "exact"
            | Registry.Rescaled -> "rescaled"
            | Registry.Transported -> "transported"
            | Registry.Scaled_cross -> "scaled_cross"
          in
          ignore
            (bench_span ~idx ~part:true
               ("registry.probe_" ^ name ^ "_s")
               (fun () -> Registry.probe registry ~blocks topo coll));
          (match bench_span ~idx "registry.load_s" (fun () -> Registry.load registry hit_key) with
          | Ok (meta, _) ->
              d.entry_kb <- d.entry_kb +. (float_of_int meta.Registry.m_bytes /. 1024.0)
          | Error _ -> ());
          ignore (bench_span ~idx "validate.check_s" (fun () -> Validate.validate topo coll schedules));
          d.events <-
            d.events
            + bench_span ~idx "sim.resim_s" (fun () ->
                  List.fold_left (fun a sc -> a + (Sim.run ~blocks topo sc).Sim.events) 0 schedules);
          if via = Registry.Transported || via = Registry.Scaled_cross then
            ignore
              (bench_span ~idx "fallback.guard_s" (fun () ->
                   List.map (Sim.time ~blocks topo) (Fallback.schedule topo coll)))
      | Serve.From_synthesis ->
          ignore
            (bench_span ~idx ~part:true "validate.check_s" (fun () ->
                 Validate.validate topo coll schedules));
          bench_span ~idx ~part:true "registry.store_s" (fun () ->
              Registry.store scratch topo coll ~blocks ~cost:s.Synthesizer.time
                ~chosen:s.Synthesizer.chosen schedules));
      if it.H.channels > 0 then begin
        let channels = it.H.channels in
        List.iteri
          (fun i (phase, sc) ->
            let name = phase_name it i in
            let lower () =
              bench_span ~idx ~part:true "msccl.lower_s" (fun () ->
                  Msccl.lower ~channels ~name ~coll:phase sc)
            in
            let emit p = bench_span ~idx ~part:true "msccl.emit_s" (fun () -> Msccl.emit p) in
            let p = lower () in
            let xml = emit p in
            let parsed = bench_span ~idx ~part:true "msccl.parse_s" (fun () -> Msccl.of_xml xml) in
            (match parsed with Ok p' -> ignore (emit p') | Error _ -> ());
            ignore
              (bench_span ~idx ~part:true "msccl_interp.replay_s" (fun () -> Interp.replay sc p));
            let out = emit (lower ()) in
            d.steps <- d.steps + Msccl.num_steps p;
            d.xml_kb <- d.xml_kb +. (float_of_int (String.length out) /. 1024.0))
          (List.combine (C.phases coll) schedules);
        ignore
          (bench_span ~idx ~part:true "refcheck.check_s" (fun () ->
               Refcheck.covers topo coll schedules))
      end

(* Serve every request twice, untraced on [ctx] and traced on [traced_ctx]
   (identical registries), alternating which goes first so neither pass
   gets the other's warm caches.  Tracing is switched on only around the
   traced request and its decomposition; each request's spans are drained
   from the ring into memory, shifted onto one time axis, and written out
   only at the end of the run. *)
let paired_passes ctx traced_ctx ~scratch =
  let d = { entry_kb = 0.0; events = 0; steps = 0; xml_kb = 0.0 } in
  let events = ref [] and dropped = ref 0 in
  let traced idx (it : H.item) =
    Trace.enable ();
    let epoch = Clock.now () -. Trace.now () in
    if ctx.workload = H.Synth_cold then begin
      let registry = traced_ctx.registries.(it.H.pass) in
      ignore
        (bench_span ~idx ~part:true "registry.probe_miss_s" (fun () ->
             Registry.probe registry ~blocks:H.config.Synthesizer.blocks
               it.H.req.Request.topo it.H.req.Request.coll))
    end;
    let ob, outcome =
      observe
        ~wrap:(fun f ->
          Trace.with_span ~cat:"bench" ~args:[ ("idx", string_of_int idx) ]
            H.request_span f)
        traced_ctx it
    in
    decompose traced_ctx ~scratch ~idx it outcome d;
    Trace.disable ();
    dropped := !dropped + Trace.dropped ();
    events :=
      List.rev_append
        (List.map (fun (e : Trace.event) -> { e with Trace.ts = e.Trace.ts +. epoch }) (Trace.events ()))
        !events;
    ob
  in
  let untraced it = fst (observe ctx it) in
  let pairs =
    Array.mapi
      (fun idx it ->
        if idx mod 2 = 0 then
          let u = untraced it in
          (u, traced idx it)
        else
          let t = traced idx it in
          (untraced it, t))
      ctx.items
  in
  (Array.map fst pairs, Array.map snd pairs, d, List.rev !events, !dropped)

let chrome_json events =
  let event (e : Trace.event) =
    Syccl_util.Json.Obj
      [
        ("name", Syccl_util.Json.Str e.Trace.name);
        ("cat", Syccl_util.Json.Str e.Trace.cat);
        ("ph", Syccl_util.Json.Str "X");
        ("ts", Syccl_util.Json.Num (1e6 *. e.Trace.ts));
        ("dur", Syccl_util.Json.Num (1e6 *. e.Trace.dur));
        ("pid", Syccl_util.Json.Num (float_of_int e.Trace.pid));
        ("tid", Syccl_util.Json.Num (float_of_int e.Trace.tid));
        ("args", Syccl_util.Json.Obj (List.map (fun (k, v) -> (k, Syccl_util.Json.Str v)) e.Trace.args));
      ]
  in
  Syccl_util.Json.to_string
    (Syccl_util.Json.Obj [ ("traceEvents", Syccl_util.Json.List (List.map event events)) ])

(* --- metrics ------------------------------------------------------------------ *)

let end_to_end ~setup_times sm =
  let t = H.tail sm.latencies in
  let total = List.fold_left ( +. ) 0.0 sm.latencies in
  let n = float_of_int sm.n in
  ( t,
    [
      { H.m_name = "setup_s"; value = H.median setup_times; unit_ = "s" };
      { H.m_name = "latency_p50_s"; value = H.quantile sm.latencies 0.5; unit_ = "s" };
      { H.m_name = "latency_tail_s"; value = t.H.value; unit_ = "s" };
      { H.m_name = "throughput_rps"; value = n /. total; unit_ = "req/s" };
      { H.m_name = "busbw_geomean_gbps"; value = H.geomean sm.busbw; unit_ = "GB/s" };
      { H.m_name = "full_rung_frac"; value = float_of_int sm.full /. n; unit_ = "frac" };
      { H.m_name = "peak_rss_mb"; value = peak_rss_mb (); unit_ = "MB" };
    ] )

let print_metrics ?(note = fun _ -> "") metrics =
  List.iter
    (fun (m : H.metric) ->
      Printf.printf "  %-30s %14.6g %-7s%s\n" m.H.m_name m.H.value m.H.unit_ (note m.H.m_name))
    metrics

let per_layer ctx ~untraced ~traced ~(d : decomp) (r : H.reduced) =
  let n = float_of_int (Array.length ctx.items) in
  let per x = x /. n in
  let layer name = per (Option.value ~default:0.0 (List.assoc_opt name r.H.layers)) in
  let sum_obs obs f = Array.fold_left (fun a ob -> a +. f ob) 0.0 obs in
  let sum_c name = sum_obs traced (fun ob -> counter ob name) in
  let frac a b = if a +. b > 0.0 then a /. (a +. b) else 0.0 in
  let synth_sum f =
    sum_obs traced (fun ob ->
        match ob.served with
        | Some s when not s.from_registry -> float_of_int (f s)
        | _ -> 0.0)
  in
  let count_spans name =
    float_of_int (Option.value ~default:0 (List.assoc_opt name r.H.spans_by_name))
  in
  let from_registry ob =
    match ob.served with Some s -> s.from_registry | None -> false
  in
  let hits = sum_obs traced (fun ob -> if from_registry ob then 1.0 else 0.0) in
  (* Overhead compares the two passes request by request, leaving out a
     serve_* request synthesized on a miss: the second pass finds the
     sub-solve memo warmed by the first. *)
  let comparable i =
    ctx.workload = H.Synth_cold
    || (from_registry untraced.(i) && from_registry traced.(i))
  in
  let latency obs =
    let t = ref 0.0 in
    Array.iteri (fun i ob -> if comparable i then t := !t +. ob.latency) obs;
    !t
  in
  let s name value = { H.m_name = name; value; unit_ = "s" } in
  let c name value = { H.m_name = name; value; unit_ = "count" } in
  let f name value = { H.m_name = name; value; unit_ = "frac" } in
  let serve_self = per r.H.unattributed_s in
  [
    s "search.self_s" (layer "search.self_s");
    c "search.sketches" (per (synth_sum (fun s -> s.sketches)));
    s "combine.self_s" (layer "combine.self_s");
    c "combine.combos" (per (synth_sum (fun s -> s.combos)));
    s "subsolver.self_s" (layer "subsolver.self_s");
    c "subsolver.calls" (per (count_spans "subsolver.solve_demand"));
    f "subsolver.memo_hit_frac"
      (frac (sum_c "cache.subsolve.hits") (sum_c "cache.subsolve.misses"));
    s "milp.self_s" (layer "milp.self_s");
    c "milp.solves" (per (sum_c "milp.solves"));
    c "milp.nodes" (per (sum_c "milp.nodes"));
    c "lp.pivots" (per (sum_obs traced (fun ob -> ob.lp_pivots)));
    f "lp.warm_hit_frac" (frac (sum_c "lp.warm_hits") (sum_c "lp.warm_misses"));
    c "milp.flow_certified" (per (sum_c "milp.flow_certified"));
    c "milp.time_limited" (sum_obs traced (fun ob -> float_of_int ob.milp_limited));
    s "synthesizer.select_s" (layer "synthesizer.select_s");
    s "synthesizer.self_s" (layer "synthesizer.self_s");
    s "registry.probe_exact_s" (layer "registry.probe_exact_s");
    s "registry.probe_rescaled_s" (layer "registry.probe_rescaled_s");
    s "registry.probe_transported_s" (layer "registry.probe_transported_s");
    s "registry.probe_scaled_cross_s" (layer "registry.probe_scaled_cross_s");
    s "registry.probe_miss_s" (layer "registry.probe_miss_s");
    s "registry.load_s" (layer "registry.load_s");
    { H.m_name = "registry.entry_kb"; value = per d.entry_kb; unit_ = "KiB" };
    f "registry.hit_frac" (per hits);
    s "registry.store_s" (layer "registry.store_s");
    s "sim.resim_s" (layer "sim.resim_s");
    c "sim.events" (per (float_of_int d.events));
    s "validate.check_s" (layer "validate.check_s");
    s "fallback.guard_s" (layer "fallback.guard_s");
    s "serve.self_s" serve_self;
    f "serve.repeat_frac" (repeat_frac ctx.items);
    s "msccl.lower_s" (layer "msccl.lower_s");
    s "msccl.emit_s" (layer "msccl.emit_s");
    s "msccl.parse_s" (layer "msccl.parse_s");
    c "msccl.steps" (per (float_of_int d.steps));
    { H.m_name = "msccl.xml_kb"; value = per d.xml_kb; unit_ = "KiB" };
    s "msccl_interp.replay_s" (layer "msccl_interp.replay_s");
    s "refcheck.check_s" (layer "refcheck.check_s");
    { H.m_name = "gc.alloc_mw"; value = per (sum_obs untraced (fun ob -> ob.alloc_mw)); unit_ = "Mwords" };
    c "gc.major_collections" (per (sum_obs untraced (fun ob -> float_of_int ob.major)));
    f "trace.overhead_frac" ((latency traced /. latency untraced) -. 1.0);
    f "unattributed_frac" (if r.H.request_s > 0.0 then r.H.unattributed_s /. r.H.request_s else 0.0);
  ]

(* --- main --------------------------------------------------------------------- *)

let setup_reps = function H.Synth_cold -> 1001 | H.Serve_hits | H.Serve_lower -> 3

let print_summary ctx obs sm =
  print_census ctx.items obs sm;
  Printf.printf "digest: %s (over request key, chosen, simulated time)\n" sm.digest;
  if sm.nondeterministic > 0 then
    Printf.printf "error: %d repeated requests served a different schedule\n"
      sm.nondeterministic

let run_untraced workload ~dir ~seed ~seconds =
  let ctx, setup_times, warm_ok =
    setup workload ~dir ~seed ~seconds ~reps:(setup_reps workload)
  in
  if not warm_ok then print_endline "error: a warm-up did not store all its anchors";
  (* Start the timed phase from a compacted heap, whatever set-up left. *)
  Gc.compact ();
  let obs = serve_all ctx in
  let sm = summarize ctx.items obs in
  print_summary ctx obs sm;
  let t, metrics = end_to_end ~setup_times sm in
  let error_frac = float_of_int sm.errors /. float_of_int sm.n in
  Printf.printf "end-to-end (%s, seed %d, %d requests, one closed-loop client):\n"
    (H.workload_name workload) seed sm.n;
  print_metrics
    ~note:(function
      | "latency_tail_s" ->
          Printf.sprintf "  %s, %d samples beyond" (H.percentile_name t.H.p) t.H.beyond
      | "setup_s" ->
          Printf.sprintf "  median of %d: %s" (List.length setup_times)
            (String.concat " " (List.map (Printf.sprintf "%.4f") setup_times))
      | _ -> "")
    (metrics @ [ { H.m_name = "error_frac"; value = error_frac; unit_ = "frac" } ]);
  let correct = sm.errors = 0 && sm.nondeterministic = 0 && warm_ok in
  H.result_line ~correct ~attempted:sm.n ~failed:sm.errors metrics

let run_traced workload ~dir ~seed ~seconds =
  let ctx, _, warm_ok = setup workload ~dir ~seed ~seconds ~reps:1 in
  if not warm_ok then print_endline "error: a warm-up did not store all its anchors";
  (* The traced pass serves the same list against an identical registry:
     a copy of the warmed one, or fresh ones for synth_cold. *)
  let copy = Filename.concat dir "traced" in
  Unix.mkdir copy 0o755;
  let traced_ctx =
    {
      ctx with
      registries =
        Array.mapi
          (fun p r ->
            let d = Filename.concat copy (Printf.sprintf "registry%d" p) in
            if workload = H.Synth_cold then Registry.open_dir d
            else (
              copy_tree (Registry.dir r) d;
              Registry.open_dir d))
          ctx.registries;
      audit = Audit.open_file (Filename.concat copy "audit.jsonl");
    }
  in
  let scratch = Registry.open_dir (Filename.concat dir "scratch") in
  Gc.compact ();
  let untraced, traced, d, events, dropped = paired_passes ctx traced_ctx ~scratch in
  let events = List.filter (fun (e : Trace.event) -> e.Trace.dur >= 0.0) events in
  let sm = summarize traced_ctx.items traced in
  print_summary traced_ctx traced sm;
  let spans =
    List.map
      (fun (e : Trace.event) ->
        {
          H.name = e.Trace.name;
          track = (e.Trace.pid, e.Trace.tid);
          ts = e.Trace.ts;
          dur = e.Trace.dur;
          bench = e.Trace.cat = "bench";
          part = List.assoc_opt "part" e.Trace.args = Some "1";
        })
      events
  in
  let r = H.reduce spans in
  let metrics = per_layer traced_ctx ~untraced ~traced ~d r in
  Printf.printf "per layer (%s, seed %d, %d requests; seconds and counts per request):\n"
    (H.workload_name workload) seed sm.n;
  print_metrics metrics;
  Printf.printf "spans: %d recorded, %d dropped\n" (List.length events) dropped;
  let dump = Filename.concat work_root
      (Printf.sprintf "trace-%s-%d.json" (H.workload_name workload) seed) in
  let oc = open_out dump in
  output_string oc (chrome_json events);
  close_out oc;
  Printf.printf "span dump: %s\n" dump;
  if dropped > 0 then print_endline "error: the span ring wrapped; per-layer figures are incomplete";
  let correct = sm.errors = 0 && sm.nondeterministic = 0 && warm_ok && dropped = 0 in
  H.result_line ~correct ~attempted:sm.n ~failed:sm.errors metrics

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 30.0 and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME synth_cold | serve_hits | serve_lower");
      ("--seed", Arg.Set_int seed, "N request-list seed");
      ("--seconds", Arg.Set_float seconds, "S run length; fixes the request count");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end run, or traced per-layer run");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload NAME --seed N --seconds S --trace 0|1";
  let workload =
    match List.assoc_opt !workload H.workloads with
    | Some w -> w
    | None ->
        prerr_endline ("unknown workload " ^ !workload ^ "; expected one of: "
                       ^ String.concat ", " (List.map fst H.workloads));
        exit 2
  in
  if not (Sys.file_exists work_root) then Unix.mkdir work_root 0o755;
  let dir =
    Filename.concat work_root
      (Printf.sprintf "run-%s-%d-%d" (H.workload_name workload) !seed (Unix.getpid ()))
  in
  Unix.mkdir dir 0o755;
  let line =
    Fun.protect
      ~finally:(fun () -> rm_rf dir)
      (fun () ->
        if !trace = 0 then run_untraced workload ~dir ~seed:!seed ~seconds:!seconds
        else run_traced workload ~dir ~seed:!seed ~seconds:!seconds)
  in
  print_endline line
