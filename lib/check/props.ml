(* The property catalogue: metamorphic laws of the schedule IR and
   simulator, validator soundness against the independent reference
   checker, registry invariants, and the differential synthesis oracle.

   Each property draws its own inputs from the per-case RNG handed to it,
   so a (seed, property, case) triple fully determines the inputs — a
   failure report names exactly how to replay it. *)

module X = Syccl_util.Xrand
module Perm = Syccl_util.Perm
module Topology = Syccl_topology.Topology
module Builders = Syccl_topology.Builders
module Collective = Syccl_collective.Collective
module Schedule = Syccl_sim.Schedule
module Sim = Syccl_sim.Sim
module Validate = Syccl_sim.Validate
module Teccl = Syccl_teccl.Teccl
module Registry = Syccl_serve.Registry
module Synthesizer = Syccl.Synthesizer
module Transport = Syccl_sim.Transport
module Msccl_interp = Syccl_sim.Msccl_interp
module Fault = Syccl_topology.Fault
module Link = Syccl_topology.Link
module Failover = Syccl_serve.Failover
module Reroute = Syccl.Reroute

type verdict = Pass | Skip of string | Fail of string

type ctx = { rng : X.t; domains : int; shrink : bool }

type prop = { name : string; heavy : bool; check : ctx -> verdict }

let failf fmt = Format.kasprintf (fun s -> Fail s) fmt

let pp_schedule s = Format.asprintf "%a" Schedule.pp s

let rel_close ~tol a b =
  let denom = Float.max (Float.abs a) (Float.max (Float.abs b) 1e-30) in
  Float.abs (a -. b) <= tol *. denom

let outcome f =
  match f () with r -> Ok r | exception e -> Error (Printexc.to_string e)

(* ------------------------------------------------------------------ *)
(* reverse is an involution — structurally and in simulated cost — and
   stays one under colliding/negative priorities. *)

let prop_reverse_involution ctx =
  let rng = ctx.rng in
  let topo = Gen.topology rng in
  let coll = Gen.collective rng ~n:(Topology.num_gpus topo) in
  let schedules = Gen.schedules rng topo coll in
  let schedules =
    (* Half the time, stress the priority mirror with colliding and
       negative priorities. *)
    if X.bool rng then
      List.map
        (fun s ->
          match Gen.mutate rng topo Gen.Reprioritize s with
          | Some s' -> s'
          | None -> s)
        schedules
    else schedules
  in
  let rec go = function
    | [] -> Pass
    | s :: rest ->
        let rr = Schedule.reverse (Schedule.reverse s) in
        if rr <> s then
          failf "reverse (reverse s) <> s (priority mirror drifts)\n%s"
            (pp_schedule s)
        else
          let t = Sim.time topo s and t' = Sim.time topo rr in
          if not (rel_close ~tol:1e-12 t t') then
            failf "double-reverse cost %g <> %g" t' t
          else go rest
  in
  go schedules

(* ------------------------------------------------------------------ *)
(* scale is cost-linear in the bytes term: on zero-latency links, scaling
   every chunk by a power-of-two factor scales the simulated time exactly
   (block counts saturate, so the event structure is identical). *)

let prop_scale_linear ctx =
  let rng = ctx.rng in
  let topo = Gen.topology ~zero_alpha:true rng in
  let n = Topology.num_gpus topo in
  let kind = X.pick rng Gen.all_kinds in
  let root = X.int rng n in
  let peer =
    match kind with
    | Collective.SendRecv ->
        let p = X.int rng (n - 1) in
        if p >= root then p + 1 else p
    | _ -> 0
  in
  (* Size floor keeps every chunk's block count pinned at the maximum both
     before and after scaling, so only per-block bytes change. *)
  let coll =
    Collective.make ~root ~peer kind ~n ~size:(2048.0 +. X.float rng 1e4)
  in
  let schedules = Gen.schedules rng topo coll in
  let k = X.pick rng [| 0.5; 2.0; 4.0 |] in
  let rec go = function
    | [] -> Pass
    | s :: rest ->
        let t = Sim.time topo s in
        let t' = Sim.time topo (Schedule.scale s k) in
        if not (rel_close ~tol:1e-9 t' (k *. t)) then
          failf "scale %g: cost %g, expected %g (base %g)" k t' (k *. t) t
        else go rest
  in
  go schedules

(* ------------------------------------------------------------------ *)
(* union dominance.  The naive law — "a union never finishes before
   either part alone" — is FALSE for parts sharing ports: the simulator
   is a greedy list scheduler keyed on (avail, prio, ...), and extra
   traffic perturbs avail times, which can reorder a part's own
   transfers into a luckier tie-break than it gets alone (a Graham-style
   scheduling anomaly; this fuzzer found ~2% of shared-port cases off by
   up to ~15%).  What the synthesizer actually relies on (§5.3) is the
   port-DISJOINT case: a representative schedule transported onto
   disjoint isomorphic orbits and unioned.  There the parts cannot
   interact at all, so the union must cost exactly the max of the parts
   — an equality, checked as such.  For shared-port unions we keep the
   structural half: the union of two valid schedules stays valid. *)

let prop_union_dominates ctx =
  let rng = ctx.rng in
  (* Shared-port half: validity only. *)
  let topo = Gen.topology rng in
  let n = Topology.num_gpus topo in
  let c1 = Gen.collective rng ~n and c2 = Gen.collective rng ~n in
  let s1 = List.hd (Gen.schedules rng topo c1) in
  let s2 = List.hd (Gen.schedules rng topo c2) in
  match Validate.check topo (Schedule.union [ s1; s2 ]) with
  | Error e -> failf "union of two valid schedules fails validation: %s" e
  | Ok () ->
  (* Disjoint-orbit half: the same schedule (priorities colliding across
     parts by construction) on the two halves of a doubled switch. *)
  let m = X.pick rng [| 2; 3; 4 |] in
  let link = Gen.link rng in
  let small = Builders.single_switch ~name:"fuzz-orbit" ~n:m ~link () in
  let big = Builders.single_switch ~name:"fuzz-orbits" ~n:(2 * m) ~link () in
  let c = Gen.collective rng ~n:m in
  let part = List.hd (Gen.schedules rng small c) in
  let lo = Schedule.map_gpus part Fun.id in
  let hi = Schedule.map_gpus part (fun g -> g + m) in
  let u = Schedule.union [ lo; hi ] in
  match Validate.check big u with
  | Error e -> failf "disjoint-orbit union fails validation: %s" e
  | Ok () ->
      let tu = Sim.time big u in
      let t1 = Sim.time big lo and t2 = Sim.time big hi in
      let lo_t = Float.max t1 t2 in
      if not (rel_close ~tol:1e-9 tu lo_t) then
        failf "disjoint-orbit union cost %g differs from max of parts (%g, %g)"
          tu t1 t2
      else Pass

(* ------------------------------------------------------------------ *)
(* automorphism transport: relabelling GPUs through a topology
   automorphism preserves validity (against the transported demand) and
   simulated cost. *)

(* The endpoint-signature tag translation and relabelling now live in
   {!Syccl_sim.Transport} (failover warming ships schedules across fault
   orbits with it); the property exercises that production code path. *)
let prop_automorphism_transport ctx =
  let rng = ctx.rng in
  let topo = Gen.topology rng in
  let n = Topology.num_gpus topo in
  let coll = Gen.collective rng ~n in
  let perms =
    Array.map
      (fun sz ->
        let a = Array.init sz Fun.id in
        X.shuffle rng a;
        a)
      topo.Topology.shape
  in
  let p = Topology.apply_axis_perms topo perms in
  if not (Topology.is_automorphism topo p) then
    Skip "per-axis permutation is not an automorphism here"
  else
    let schedules = Gen.schedules rng topo coll in
    let peer' =
      match coll.Collective.kind with
      | Collective.SendRecv -> Perm.apply p coll.Collective.peer
      | _ -> coll.Collective.peer
    in
    let coll' =
      Collective.make
        ~root:(Perm.apply p coll.Collective.root)
        ~peer:peer' coll.Collective.kind ~n ~size:coll.Collective.size
    in
    match Transport.schedules p coll coll' schedules with
    | None -> Skip "ambiguous demand chunk signature under permutation"
    | Some schedules' -> (
      match Validate.validate topo coll' schedules' with
      | Error e -> failf "transported schedule invalid: %s" e
      | Ok () ->
          let t = Sim.phases_time topo schedules in
          let t' = Sim.phases_time topo schedules' in
          if not (rel_close ~tol:1e-9 t t') then
            failf "transport changes cost: %g -> %g" t t'
          else Pass)

(* ------------------------------------------------------------------ *)
(* validator agreement on healthy schedules: everything the generators
   produce must satisfy the validator, the independent reference checker,
   and the simulator. *)

let prop_generators_agree ctx =
  let rng = ctx.rng in
  let topo = Gen.topology rng in
  let coll = Gen.collective rng ~n:(Topology.num_gpus topo) in
  let schedules = Gen.schedules rng topo coll in
  match Validate.validate topo coll schedules with
  | Error e -> failf "generator schedule fails validator: %s" e
  | Ok () -> (
      match Refcheck.covers topo coll schedules with
      | Error e -> failf "generator schedule fails reference checker: %s" e
      | Ok () -> (
          match Sim.phases_time topo schedules with
          | (_ : float) -> Pass
          | exception e ->
              failf "generator schedule fails simulator: %s"
                (Printexc.to_string e)))

(* ------------------------------------------------------------------ *)
(* validator soundness under mutation: any mutant the validator accepts
   must also satisfy the reference checker and complete in the simulator
   — a divergence means one of the two checkers has a hole.  The shrunk
   witness is reported when shrinking is on. *)

let mutant_escapes topo phase s =
  match Validate.covers topo phase s with
  | Error _ -> false
  | Ok () -> (
      match Refcheck.covers_phase phase s with
      | Error _ -> true
      | Ok () -> (
          match Sim.time topo s with
          | (_ : float) -> false
          | exception _ -> true))

let prop_mutant_soundness ctx =
  let rng = ctx.rng in
  let topo = Gen.topology rng in
  let coll = Gen.collective rng ~n:(Topology.num_gpus topo) in
  let phases = Collective.phases coll in
  let schedules = Gen.schedules rng topo coll in
  let i = X.int rng (List.length schedules) in
  let s = List.nth schedules i in
  let phase = List.nth phases i in
  let kind = Gen.mutation rng in
  match Gen.mutate rng topo kind s with
  | None -> Skip "mutation not applicable"
  | Some mutant -> (
      match Validate.covers topo phase mutant with
      | Error _ -> Pass (* the validator caught the mutation *)
      | Ok () -> (
          let escaped why =
            let witness =
              if ctx.shrink then
                Shrink.schedule ~still_fails:(mutant_escapes topo phase) mutant
              else mutant
            in
            failf "validator accepts a %s mutant but %s\n%s"
              (Gen.mutation_name kind) why (pp_schedule witness)
          in
          match Refcheck.covers_phase phase mutant with
          | Error e -> escaped ("reference checker rejects: " ^ e)
          | Ok () -> (
              match Sim.time topo mutant with
              | exception e ->
                  escaped ("simulator rejects: " ^ Printexc.to_string e)
              | (_ : float) -> (
                  match kind with
                  | Gen.Duplicate ->
                      (* A duplicated transfer is always detectable;
                         acceptance is a validator hole even if downstream
                         checkers cope. *)
                      failf "validator accepts a %s mutant\n%s"
                        (Gen.mutation_name kind) (pp_schedule mutant)
                  | _ -> Pass))))

(* ------------------------------------------------------------------ *)
(* reordering the transfer list is benign for validity: all validator
   judgements are fixpoints over sets, never over list position. *)

let prop_reorder_benign ctx =
  let rng = ctx.rng in
  let topo = Gen.topology rng in
  let coll = Gen.collective rng ~n:(Topology.num_gpus topo) in
  let phases = Collective.phases coll in
  let schedules = Gen.schedules rng topo coll in
  let i = X.int rng (List.length schedules) in
  let s = List.nth schedules i in
  let phase = List.nth phases i in
  let arr = Array.of_list s.Schedule.xfers in
  X.shuffle rng arr;
  let s' = { s with Schedule.xfers = Array.to_list arr } in
  match (Validate.covers topo phase s, Validate.covers topo phase s') with
  | Ok (), Ok () -> (
      match Sim.time topo s' with
      | (_ : float) -> Pass
      | exception e ->
          failf "reordered valid schedule fails simulator: %s"
            (Printexc.to_string e))
  | Error e, _ -> failf "generator schedule invalid before reorder: %s" e
  | Ok (), Error e -> failf "validity depends on transfer order: %s" e

(* ------------------------------------------------------------------ *)
(* registry fidelity: an entry stored at one simulator fidelity must
   survive a probe at another — demotion may only compare like for like. *)

let temp_registry_dir rng =
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "syccl-fuzz-reg-%d-%d" (Unix.getpid ())
       (X.int rng 1_000_000_000))

let prop_registry_fidelity ctx =
  let rng = ctx.rng in
  let topo = Gen.topology rng in
  let coll = Gen.collective rng ~n:(Topology.num_gpus topo) in
  let schedules = Syccl_baselines.Fallback.schedule topo coll in
  let b_store = X.pick rng [| 1; 2; 4; 8; 16 |] in
  let b_probe = X.pick rng [| 1; 2; 4; 8; 16 |] in
  let dir = temp_registry_dir rng in
  let reg = Registry.open_dir dir in
  Fun.protect
    ~finally:(fun () -> Registry.destroy reg)
    (fun () ->
      let cost = Sim.phases_time ~blocks:b_store topo schedules in
      Registry.store reg topo coll ~blocks:b_store ~cost
        ~chosen:"fuzz-fallback" schedules;
      match Registry.lookup reg ~blocks:b_probe topo coll with
      | None ->
          failf
            "entry stored at blocks=%d demoted when probed at blocks=%d"
            b_store b_probe
      | Some hit ->
          if hit.Registry.stored_blocks <> b_store then
            failf "hit reports stored_blocks=%d, stored at %d"
              hit.Registry.stored_blocks b_store
          else if
            not
              (rel_close ~tol:1e-9 hit.Registry.time
                 (Sim.phases_time ~blocks:b_probe topo schedules))
          then
            failf "hit time %g is not the probe-fidelity resimulation"
              hit.Registry.time
          else Pass)

(* ------------------------------------------------------------------ *)
(* registry transport soundness: a hit transported from a symmetric root
   must simulate at exactly the source entry's cost on the source
   topology — the automorphism-transport law, observed end-to-end through
   the serving probe — and must carry the source entry's key. *)

let rooted_kinds =
  [|
    Collective.Broadcast; Collective.Scatter; Collective.Gather;
    Collective.Reduce;
  |]

let prop_registry_transport ctx =
  let rng = ctx.rng in
  let topo = Gen.topology rng in
  let n = Topology.num_gpus topo in
  let src = Gen.collective ~kinds:rooted_kinds rng ~n in
  let src_root = src.Collective.root in
  (* Destination roots the probe can reach: images of the source root
     under the (healthy) stabilizer, excluding the source itself. *)
  let dsts =
    List.sort_uniq compare
      (List.filter_map
         (fun p ->
           let r = Perm.apply p src_root in
           if r = src_root then None else Some r)
         (Topology.stabilizer topo))
  in
  match dsts with
  | [] -> Skip "stabilizer fixes the source root"
  | _ -> (
      let dst_root = X.pick rng (Array.of_list dsts) in
      let dst =
        Collective.make ~root:dst_root ~peer:0 src.Collective.kind ~n
          ~size:src.Collective.size
      in
      let schedules = Syccl_baselines.Fallback.schedule topo src in
      let cost = Sim.phases_time topo schedules in
      let dir = temp_registry_dir rng in
      let reg = Registry.open_dir dir in
      Fun.protect
        ~finally:(fun () -> Registry.destroy reg)
        (fun () ->
          Registry.store reg topo src ~cost ~chosen:"fuzz-fallback" schedules;
          match Registry.probe reg topo dst with
          | Registry.Hit h ->
              if h.Registry.via <> Registry.Transported then
                failf "probe at root %d served via %s, expected transport"
                  dst_root (Registry.via_name h.Registry.via)
              else if h.Registry.hit_key <> Registry.key topo src then
                failf "transported hit reports key %s, source is %s"
                  h.Registry.hit_key (Registry.key topo src)
              else if not (rel_close ~tol:1e-9 h.Registry.time cost) then
                failf
                  "transport changes cost: source %g, transported %g"
                  cost h.Registry.time
              else Pass
          | Registry.Miss Registry.Transport_rejected ->
              (* Legitimate: ambiguous demand chunk signature, or the
                 fallback at the destination root beats the transport. *)
              Skip "transport rejected"
          | Registry.Miss r ->
              failf "probe at symmetric root %d missed (%s)" dst_root
                (Registry.miss_reason_name r)))

(* ------------------------------------------------------------------ *)
(* registry memo: interleave a random script of entry writes with probes,
   and hold every probe — memoized or not — to a cold probe of the same
   files copied under a fresh registry root, which shares no memo entry
   with it.  The script covers what can change under a memoized verdict:
   the exact entry, an adjacent-bucket entry and (rooted kinds) an entry
   at a symmetric root, each stored at its true cost, stored with a cost
   below its simulated time, truncated or deleted; and what a memo key
   must tell apart: in-bucket sizes, the bucket above, and simulator
   fidelities. *)

let entry_file reg k =
  Filename.concat (Registry.dir reg)
    (Filename.concat (Registry.shard_of_key k) (k ^ ".json"))

let read_bytes path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_bytes path body =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () ->
      output_string oc body)

(* The same entry files, byte for byte, under a fresh root. *)
let cold_copy rng reg =
  let fresh = Registry.open_dir (temp_registry_dir rng) in
  List.iter
    (fun k ->
      let dst = entry_file fresh k in
      (try Unix.mkdir (Filename.dirname dst) 0o755
       with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
      write_bytes dst (read_bytes (entry_file reg k)))
    (Registry.keys reg);
  fresh

(* The first field on which two probe results differ, if any. *)
let probe_difference a b =
  let bits = Int64.bits_of_float in
  match (a, b) with
  | Registry.Miss r, Registry.Miss r' ->
      if r = r' then None
      else
        Some
          (Printf.sprintf "miss %s, cold miss %s" (Registry.miss_reason_name r)
             (Registry.miss_reason_name r'))
  | Registry.Hit h, Registry.Hit h' ->
      let fields =
        [
          ("via", h.Registry.via = h'.Registry.via);
          ("hit_key", h.Registry.hit_key = h'.Registry.hit_key);
          ("chosen", h.Registry.chosen = h'.Registry.chosen);
          ( "stored_cost",
            bits h.Registry.stored_cost = bits h'.Registry.stored_cost );
          ( "stored_blocks",
            h.Registry.stored_blocks = h'.Registry.stored_blocks );
          ("time", bits h.Registry.time = bits h'.Registry.time);
          ("schedules", h.Registry.schedules = h'.Registry.schedules);
        ]
      in
      Option.map
        (fun (f, _) -> "hits differ in " ^ f)
        (List.find_opt (fun (_, same) -> not same) fields)
  | Registry.Hit _, Registry.Miss r ->
      Some ("hit, cold miss " ^ Registry.miss_reason_name r)
  | Registry.Miss r, Registry.Hit _ ->
      Some ("miss " ^ Registry.miss_reason_name r ^ ", cold hit")

let prop_registry_memo ctx =
  let rng = ctx.rng in
  let topo = Gen.topology rng in
  let n = Topology.num_gpus topo in
  let base = Gen.collective rng ~n in
  let kind = base.Collective.kind in
  let at ?(root = base.Collective.root) ?(peer = base.Collective.peer) size =
    Collective.make ~root ~peer kind ~n ~size
  in
  (* Base size s = 2^b·m, an in-bucket size 2^b·m' and the bucket above. *)
  let b = 4 + X.int rng 17 in
  let s = Float.ldexp (1.0 +. X.float rng 0.25) b in
  let s_in = Float.ldexp (1.5 +. X.float rng 0.5) b in
  let exact = at s and above = at (2.0 *. s) in
  (* A symmetric source of [base] for rooted kinds: the pair some
     stabilizer element maps onto the request. *)
  let symmetric =
    if not (Array.mem kind rooted_kinds || kind = Collective.SendRecv) then None
    else
      let p = X.pick rng (Array.of_list (Topology.stabilizer topo)) in
      let q = Perm.invert p in
      let root = Perm.apply q base.Collective.root in
      let peer =
        if kind = Collective.SendRecv then Perm.apply q base.Collective.peer
        else base.Collective.peer
      in
      if root = base.Collective.root && peer = base.Collective.peer then None
      else Some (at ~root ~peer s)
  in
  let slots = Array.of_list ([ exact; above ] @ Option.to_list symmetric) in
  let targets =
    Array.of_list ([ exact; at s_in; above ] @ Option.to_list symmetric)
  in
  let fidelities =
    let b1 = X.pick rng [| 1; 2; 4; 8 |] and b2 = X.pick rng [| 1; 2; 4; 8 |] in
    [| b1; b2 |]
  in
  let reg = Registry.open_dir (temp_registry_dir rng) in
  let store ~slower c =
    let schedules = Syccl_baselines.Fallback.schedule topo c in
    let blocks = X.pick rng [| 1; 2; 4; 8 |] in
    let cost = Sim.phases_time ~blocks topo schedules in
    Registry.store reg topo c ~blocks
      ~cost:(if slower then cost *. 0.5 else cost)
      ~chosen:(if slower then "fuzz-slower" else "fuzz-fallback")
      schedules
  in
  let write () =
    let c = X.pick rng slots in
    let path = entry_file reg (Registry.key topo c) in
    match X.int rng 5 with
    | 0 | 1 -> ("store", store ~slower:false c)
    | 2 -> ("store-slower", store ~slower:true c)
    | 3 ->
        ( "truncate",
          if Sys.file_exists path then
            let body = read_bytes path in
            if body <> "" then
              write_bytes path
                (String.sub body 0 (X.int rng (String.length body))) )
    | _ -> ("delete", ignore (Registry.remove_entry reg (Registry.key topo c)))
  in
  let describe (c : Collective.t) blocks =
    Printf.sprintf "%s root=%d peer=%d size=%.17g blocks=%d"
      (Collective.kind_name kind) c.Collective.root c.Collective.peer
      c.Collective.size blocks
  in
  let rec run step history =
    if step = 24 then Pass
    else if X.int rng 3 = 0 then
      let what, () = write () in
      run (step + 1) (what :: history)
    else begin
      let c = X.pick rng targets and blocks = X.pick rng fidelities in
      let got = Registry.probe reg ~blocks topo c in
      let cold = cold_copy rng reg in
      let want =
        Fun.protect
          ~finally:(fun () -> Registry.destroy cold)
          (fun () -> Registry.probe cold ~blocks topo c)
      in
      match probe_difference got want with
      | None -> run (step + 1) (("probe " ^ describe c blocks) :: history)
      | Some d ->
          failf "%s: %s (after: %s)" (describe c blocks) d
            (String.concat "; " (List.rev history))
    end
  in
  Fun.protect
    ~finally:(fun () -> Registry.destroy reg)
    (fun () ->
      store ~slower:false exact;
      run 0 [ "store" ])

(* ------------------------------------------------------------------ *)
(* size_bucket is the exact power-of-two floor. *)

let prop_size_bucket ctx =
  let rng = ctx.rng in
  let s = Gen.size rng in
  let b = Registry.size_bucket s in
  if Float.ldexp 1.0 b <= s && s < Float.ldexp 1.0 (b + 1) then Pass
  else failf "size_bucket %.17g = %d, outside [2^%d, 2^%d)" s b b (b + 1)

(* ------------------------------------------------------------------ *)
(* differential synthesis oracle: the full pipeline (MILP refinement on)
   against greedy-only synthesis, TECCL, NCCL and the fallback ladder on
   the same demand.  Everything must validate; no comparator may beat the
   candidate beyond the screening tolerance. *)

let oracle_tolerance = 0.25
(* r1 screening keeps candidates within 20 % of the best; give the oracle
   a little slack on top so a legitimate tie broken the other way is not
   a counterexample. *)

let teccl_tolerance = 2.0
(* TECCL is a different contract: on the oracle's tiny instances its
   epoch MILP solves the whole problem near-optimally, and the sketch
   search legitimately trades that last factor for synthesis speed at
   scale (the paper's Fig. 15b tradeoff).  TECCL winning is expected;
   TECCL winning 3x would still mean the sketch space is missing
   something structural — that is the regression this bound catches. *)

(* A small synthesis request: a generator topology with at most 8 GPUs
   (or [None]), any kind, any root, a distinct peer for SendRecv, and a
   log-uniform size in [8 B, 80 KB). *)
let small_request rng =
  let rec small tries =
    let t = Gen.topology rng in
    if Topology.num_gpus t <= 8 || tries > 10 then t else small (tries + 1)
  in
  let topo = small 0 in
  let n = Topology.num_gpus topo in
  if n > 8 then None
  else
    let kind = X.pick rng Gen.all_kinds in
    let root = X.int rng n in
    let peer =
      match kind with
      | Collective.SendRecv ->
          let p = X.int rng (n - 1) in
          if p >= root then p + 1 else p
      | _ -> 0
    in
    Some
      ( topo,
        Collective.make ~root ~peer kind ~n
          ~size:(8.0 *. Float.exp (X.float rng (Float.log 1e4))) )

let prop_oracle ctx =
  let rng = ctx.rng in
  (* Small instances only: the oracle solves four ways per case. *)
  match small_request rng with
  | None -> Skip "no small topology drawn"
  | Some (topo, coll) ->
      let n = Topology.num_gpus topo in
      let kind = coll.Collective.kind in
      let config =
        {
          Synthesizer.default_config with
          Synthesizer.domains = ctx.domains;
          deadline = Some 30.0;
        }
      in
      let candidate = Synthesizer.synthesize ~config topo coll in
      match Validate.validate topo coll candidate.Synthesizer.schedules with
      | Error e -> failf "oracle: candidate schedule invalid: %s" e
      | Ok () ->
          let fast =
            Synthesizer.synthesize
              ~config:{ config with Synthesizer.fast_only = true }
              topo coll
          in
          let teccl =
            Teccl.synthesize ~seed:(X.int rng 1_000_000) ~restarts:1
              ~time_budget:10.0 topo coll
          in
          let comparators =
            [ ("greedy", oracle_tolerance, Some fast.Synthesizer.schedules);
              ("teccl", teccl_tolerance, teccl.Teccl.schedules);
              ("nccl", oracle_tolerance,
               Some (Syccl_baselines.Nccl.schedule topo coll));
              ("fallback", oracle_tolerance,
               Some (Syccl_baselines.Fallback.schedule topo coll));
            ]
          in
          let rec check_all acc = function
            | [] -> Ok acc
            | (_, _, None) :: rest -> check_all acc rest
            | (name, tol, Some schedules) :: rest -> (
                match Validate.validate topo coll schedules with
                | Error e -> Error (name, e)
                | Ok () ->
                    check_all
                      ((name, tol, Sim.phases_time topo schedules) :: acc)
                      rest)
          in
          (match check_all [] comparators with
          | Error (name, e) -> failf "oracle: %s baseline invalid: %s" name e
          | Ok timed ->
              let beaten =
                (* each comparator is held to its own screening tolerance *)
                List.filter
                  (fun (_, tol, t) ->
                    candidate.Synthesizer.time > t *. (1.0 +. tol) +. 1e-12)
                  timed
              in
              match
                (candidate.Synthesizer.degraded = Synthesizer.Full, beaten)
              with
              | false, _ | true, [] -> Pass
              | true, (best_name, _, best) :: _ ->
                  failf
                    "oracle: %s beats the synthesizer beyond tolerance: %g vs \
                     %g (kind %s, n=%d, size %g)"
                    best_name best candidate.Synthesizer.time
                    (Collective.kind_name kind) n coll.Collective.size)

(* ------------------------------------------------------------------ *)
(* Synthesis is a function of the request.  A request synthesized again
   after 1–3 others — its kind at another size in its power-of-two bucket,
   another kind at its size, itself on a second generator topology of the
   same family name and GPU count — gets the same outcome: bit-equal time,
   the same winner and rung, structurally equal schedules.  Fast-only with
   no deadline, so no wall clock can cut a solve.  The shared caches are
   reset after the first run: solutions that outlived it would otherwise
   let the second run replay the first and hide what the history left. *)

let prop_synth_history ctx =
  let rng = ctx.rng in
  match small_request rng with
  | None -> Skip "no small topology drawn"
  | Some (topo, coll) ->
      let config =
        {
          Synthesizer.default_config with
          Synthesizer.fast_only = true;
          domains = ctx.domains;
        }
      in
      let n = Topology.num_gpus topo in
      let { Collective.kind; root; peer; size; _ } = coll in
      let in_bucket =
        let lo = Float.ldexp 1.0 (snd (Float.frexp size) - 1) in
        Collective.make ~root ~peer kind ~n ~size:(lo +. X.float rng lo)
      in
      let other_kind =
        let k =
          X.pick rng
            (Array.of_list
               (List.filter (( <> ) kind) (Array.to_list Gen.all_kinds)))
        in
        let peer = if k = Collective.SendRecv then (root + 1) mod n else 0 in
        Collective.make ~root ~peer k ~n ~size
      in
      let twin =
        let rec draw tries =
          if tries = 0 then None
          else
            let t = Gen.topology rng in
            if t.Topology.name = topo.Topology.name && Topology.num_gpus t = n
            then Some t
            else draw (tries - 1)
        in
        draw 40
      in
      let history =
        Array.of_list
          ([ (topo, in_bucket); (topo, other_kind) ]
          @ Option.fold ~none:[] ~some:(fun t -> [ (t, coll) ]) twin)
      in
      X.shuffle rng history;
      let history =
        Array.sub history 0 (1 + X.int rng (Array.length history))
      in
      let run topo coll =
        outcome (fun () -> Synthesizer.synthesize ~config topo coll)
      in
      let first = run topo coll in
      Synthesizer.reset_caches ();
      Array.iter (fun (t, c) -> ignore (run t c)) history;
      let again = run topo coll in
      let describe =
        String.concat ", "
          (Array.to_list
             (Array.map
                (fun (t, c) ->
                  Format.asprintf "%a on %s" Collective.pp c
                    (if t == topo then "the same topology" else "its twin"))
                history))
      in
      let differs =
        match (first, again) with
        | Error e, Error e' -> if e = e' then None else Some "error text"
        | Ok _, Error e | Error e, Ok _ -> Some ("one run raised " ^ e)
        | Ok a, Ok b ->
            List.find_map
              (fun (field, same) -> if same then None else Some field)
              [
                ( "time",
                  Int64.bits_of_float a.Synthesizer.time
                  = Int64.bits_of_float b.Synthesizer.time );
                ("chosen", a.Synthesizer.chosen = b.Synthesizer.chosen);
                ("rung", a.Synthesizer.degraded = b.Synthesizer.degraded);
                ( "schedules",
                  a.Synthesizer.schedules = b.Synthesizer.schedules );
              ]
      in
      match differs with
      | None -> Pass
      | Some field ->
          failf "synth-history: %a on %s (n=%d) differs in %s after %s"
            Collective.pp coll topo.Topology.name n field describe

(* ------------------------------------------------------------------ *)
(* The revised sparse simplex agrees with the retired dense tableau (kept
   as Lp_dense, the differential oracle) on random LPs: same status, same
   objective within 1e-6, and the revised solution actually satisfies the
   constraints it claims to. *)

module Lp = Syccl_milp.Lp
module Lp_dense = Syccl_milp.Lp_dense

let pp_lp (p : Lp.problem) =
  let b = Buffer.create 128 in
  Buffer.add_string b "min [";
  Array.iter (fun c -> Buffer.add_string b (Printf.sprintf " %g" c)) p.objective;
  Buffer.add_string b " ]\n";
  List.iter
    (fun (terms, cmp, rhs) ->
      List.iter
        (fun (j, c) -> Buffer.add_string b (Printf.sprintf "%+gx%d " c j))
        terms;
      Buffer.add_string b
        (match cmp with Lp.Le -> "<= " | Lp.Ge -> ">= " | Lp.Eq -> "= ");
      Buffer.add_string b (Printf.sprintf "%g\n" rhs))
    p.rows;
  Buffer.contents b

let lp_status = function
  | Lp.Optimal _ -> "optimal"
  | Lp.Infeasible -> "infeasible"
  | Lp.Unbounded -> "unbounded"
  | Lp.Iter_limit -> "iter_limit"

let lp_point_feasible (p : Lp.problem) x =
  Array.for_all (fun v -> v >= -1e-6) x
  && List.for_all
       (fun (terms, cmp, rhs) ->
         let lhs =
           List.fold_left (fun a (j, c) -> a +. (c *. x.(j))) 0.0 terms
         in
         match cmp with
         | Lp.Le -> lhs <= rhs +. 1e-6
         | Lp.Ge -> lhs >= rhs -. 1e-6
         | Lp.Eq -> Float.abs (lhs -. rhs) <= 1e-6)
       p.rows

let prop_lp_differential ctx =
  let p = Gen.lp ctx.rng in
  match (Lp_dense.solve p, Lp.solve p) with
  | Lp.Iter_limit, _ | _, Lp.Iter_limit -> Skip "iteration limit"
  | Lp.Optimal { obj = da; _ }, Lp.Optimal { obj = ra; x } ->
      (* Absolute-or-relative: optima at exactly 0.0 vs one rounding ulp
         away must not count as a divergence. *)
      let close a b =
        Float.abs (a -. b)
        <= 1e-6 *. (1.0 +. Float.max (Float.abs a) (Float.abs b))
      in
      if not (lp_point_feasible p x) then
        failf "lp-differential: revised optimum violates constraints\n%s"
          (pp_lp p)
      else if not (close da ra) then
        failf "lp-differential: objectives differ: dense %.9g, revised %.9g\n%s"
          da ra (pp_lp p)
      else Pass
  | Lp.Infeasible, Lp.Infeasible | Lp.Unbounded, Lp.Unbounded -> Pass
  | dense, revised ->
      failf "lp-differential: status disagrees: dense %s, revised %s\n%s"
        (lp_status dense) (lp_status revised) (pp_lp p)

(* ------------------------------------------------------------------ *)
(* simulator differential: the production kernel (flat per-block arrays,
   int heaps) against the retired record-and-hash loop kept in {!Sim_ref}.
   Both pop blocks in the same order and do the same float operations, so
   time, event count and every transfer's finish must agree bit for bit,
   or both must raise the same exception — mutants reach the deadlock,
   event-cap and bad-input paths.  The same inputs then check the early
   exit of [Sim.phases_time]: an accepted bound never exceeds the full
   time, the full time satisfies the predicate that accepted it, and
   without an exit the result is the full time, bit for bit. *)

let sim_divergence ~blocks topo s =
  match
    ( outcome (fun () -> Sim.run ~blocks topo s),
      outcome (fun () -> Sim_ref.run ~blocks topo s) )
  with
  | Ok r, Ok r' ->
      if Sim_ref.identical r r' then None
      else
        Some
          (Printf.sprintf
             "reports differ: time %h, %d events; reference time %h, %d events"
             r.Sim.time r.Sim.events r'.Sim.time r'.Sim.events)
  | Error e, Error e' when e = e' -> None
  | Ok _, Error e' -> Some ("kernel completes, reference raises " ^ e')
  | Error e, Ok _ -> Some ("kernel raises " ^ e ^ ", reference completes")
  | Error e, Error e' -> Some ("kernel raises " ^ e ^ ", reference raises " ^ e')

let prop_sim_differential ctx =
  let rng = ctx.rng in
  let topo = Gen.topology rng in
  let coll = Gen.collective rng ~n:(Topology.num_gpus topo) in
  let schedules =
    let ss = Gen.schedules rng topo coll in
    if X.bool rng then ss
    else
      let i = X.int rng (List.length ss) in
      List.mapi
        (fun j s ->
          if j <> i then s
          else
            match Gen.mutate rng topo (Gen.mutation rng) s with
            | Some m -> m
            | None -> s)
        ss
  in
  let blocks = X.pick rng [| 1; 2; 3; 8; 16 |] in
  let early_exit () =
    let full = outcome (fun () -> Sim.phases_time ~blocks topo schedules) in
    let target =
      match full with
      | Ok t -> t *. X.pick rng [| 0.0; 0.3; 0.9; 1.0; 1.0 +. 1e-7; 1.5 |]
      | Error _ -> X.float rng 1e-4
    in
    let accepts l = target <= l *. (1.0 +. 1e-6) in
    let fired = ref false in
    let stop l =
      let ok = accepts l in
      if ok then fired := true;
      ok
    in
    match
      (outcome (fun () -> Sim.phases_time ~blocks ~stop topo schedules), full)
    with
    | Ok l, Ok t when !fired ->
        if l > t then failf "sim early exit: bound %h above full time %h" l t
        else if not (accepts t) then
          failf "sim early exit at %h, but the full time %h fails the predicate"
            l t
        else Pass
    | Ok _, Error _ when !fired -> Pass (* exit pre-empted a later failure *)
    | Ok l, Ok t ->
        if Int64.equal (Int64.bits_of_float l) (Int64.bits_of_float t) then Pass
        else failf "sim early exit: no exit, yet %h <> full %h" l t
    | Error e, Error e' when e = e' -> Pass
    | early, full ->
        let show = function Ok t -> Printf.sprintf "%h" t | Error e -> e in
        failf "sim early exit: %s, full run %s" (show early) (show full)
  in
  let rec go = function
    | [] -> early_exit ()
    | s :: rest -> (
        match sim_divergence ~blocks topo s with
        | None -> go rest
        | Some why ->
            let witness =
              if ctx.shrink then
                Shrink.schedule
                  ~still_fails:(fun s -> sim_divergence ~blocks topo s <> None)
                  s
              else s
            in
            failf "sim-differential (blocks=%d): %s\n%s" blocks why
              (pp_schedule witness))
  in
  go schedules

(* ------------------------------------------------------------------ *)
(* port bound: ports serialize blocks, so no simulator may finish a
   schedule before its busiest (GPU, port group, direction) has pushed
   β × bytes for every chunk routed through it.  Computed from the
   schedule and the link table alone, sharing no code with [Sim]; the
   slack covers per-block rounding. *)

let prop_sim_port_bound ctx =
  let rng = ctx.rng in
  let topo = Gen.topology rng in
  let coll = Gen.collective rng ~n:(Topology.num_gpus topo) in
  let schedules = Gen.schedules rng topo coll in
  let blocks = X.pick rng [| 1; 2; 3; 8; 16 |] in
  let busiest (s : Schedule.t) =
    let load = Hashtbl.create 64 in
    let add port t =
      Hashtbl.replace load port
        (t +. Option.value (Hashtbl.find_opt load port) ~default:0.0)
    in
    List.iter
      (fun (x : Schedule.xfer) ->
        let d = Topology.dim topo x.dim in
        let t = d.Topology.link.Link.beta *. s.Schedule.chunks.(x.chunk).size in
        add (x.src, d.Topology.port_group, "out") t;
        add (x.dst, d.Topology.port_group, "in") t)
      s.Schedule.xfers;
    Hashtbl.fold
      (fun port t (best, bt) -> if t > bt then (Some port, t) else (best, bt))
      load (None, 0.0)
  in
  let rec go = function
    | [] -> Pass
    | s :: rest -> (
        let t = Sim.time ~blocks topo s in
        match busiest s with
        | Some (gpu, pg, dir), bound when t < bound *. (1.0 -. 1e-9) ->
            failf
              "sim-port-bound (blocks=%d): time %g below gpu%d pg%d %s port \
               bound %g\n%s"
              blocks t gpu pg dir bound (pp_schedule s)
        | _ -> go rest)
  in
  go schedules

(* ------------------------------------------------------------------ *)
(* degraded validity: whatever rung of the ladder serves a punctured
   topology, the result must validate on the punctured topology — a
   degraded schedule crossing a dead link would be an outage dressed up
   as an answer.  A clean refusal (Failure: the faults disconnect a
   demand) is acceptable; an invalid schedule is not. *)

let draw_faults rng topo ~max_elts =
  let elts = Array.of_list (Failover.link_elements topo) in
  if Array.length elts = 0 then None
  else begin
    X.shuffle rng elts;
    let k = 1 + X.int rng (min max_elts (Array.length elts)) in
    Some (Fault.of_list (Array.to_list (Array.sub elts 0 k)))
  end

let prop_degraded_validity ctx =
  let rng = ctx.rng in
  let topo = Gen.topology rng in
  match draw_faults rng topo ~max_elts:2 with
  | None -> Skip "topology has no intra-group links"
  | Some faults -> (
      let punctured = Topology.puncture topo faults in
      let coll = Gen.collective rng ~n:(Topology.num_gpus topo) in
      let config =
        {
          Synthesizer.default_config with
          Synthesizer.fast_only = true;
          domains = ctx.domains;
          deadline = Some 20.0;
        }
      in
      match Synthesizer.synthesize ~config punctured coll with
      | exception Failure _ -> Skip "faults disconnect the demand"
      | o -> (
          match Validate.validate punctured coll o.Synthesizer.schedules with
          | Ok () -> Pass
          | Error e ->
              failf
                "degraded (%s rung) schedule invalid on punctured topology \
                 [%s]: %s"
                (Synthesizer.level_name o.Synthesizer.degraded)
                (Fault.encode faults) e))

(* ------------------------------------------------------------------ *)
(* fault-orbit transport invariance: a schedule rerouted around fault set
   F, transported along an automorphism p of the healthy topology that
   preserves the collective, is a valid equal-cost schedule for fault set
   p(F).  This is the law failover warming (syccl warm --faults K) leans
   on to synthesize one orbit representative and ship it to the rest. *)

let prop_fault_orbit_transport ctx =
  let rng = ctx.rng in
  let topo = Gen.topology rng in
  match draw_faults rng topo ~max_elts:2 with
  | None -> Skip "topology has no intra-group links"
  | Some faults -> (
      let coll = Gen.collective rng ~n:(Topology.num_gpus topo) in
      let schedules = Gen.schedules rng topo coll in
      let punctured = Topology.puncture topo faults in
      match Reroute.schedules punctured schedules with
      | exception Failure _ -> Skip "faults disconnect a delivery"
      | rerouted -> (
          match Validate.validate punctured coll rerouted with
          | Error e -> failf "rerouted schedule invalid: %s" e
          | Ok () -> (
              let group = Array.of_list (Failover.symmetry_group topo coll) in
              let p = X.pick rng group in
              let faults' = Fault.map p faults in
              let punctured' = Topology.puncture topo faults' in
              match Transport.schedules p coll coll rerouted with
              | None -> Skip "ambiguous demand chunk signature"
              | Some transported -> (
                  match Validate.validate punctured' coll transported with
                  | Error e ->
                      failf
                        "transported schedule invalid on fault orbit image \
                         [%s]: %s"
                        (Fault.encode faults') e
                  | Ok () ->
                      let t = Sim.phases_time punctured rerouted in
                      let t' = Sim.phases_time punctured' transported in
                      if not (rel_close ~tol:1e-9 t t') then
                        failf "fault-orbit transport changes cost: %g -> %g" t
                          t'
                      else Pass))))

(* ------------------------------------------------------------------ *)
(* executor-level lowering oracle: lowering any valid schedule to MSCCL
   XML, parsing it back and replaying it step-by-step under executor
   semantics reproduces exactly the reference checker's verdict of the
   demand — at any channel count.  This is the second differential oracle
   of ROADMAP 5(a): it checks threadblock layout, FIFO connection pairing
   and cross-threadblock dependency edges, which no schedule-level checker
   sees. *)

let lowering_diverges ~channels phase s =
  match Refcheck.covers_phase phase s with
  | Error _ -> false (* the schedule itself is wrong; not a lowering bug *)
  | Ok () ->
      Result.is_error (Msccl_interp.check_lowering ~channels ~coll:phase [ s ])

let prop_lower_replay ctx =
  let rng = ctx.rng in
  let topo = Gen.topology rng in
  let coll = Gen.collective rng ~n:(Topology.num_gpus topo) in
  let phases = Collective.phases coll in
  let schedules = Gen.schedules rng topo coll in
  let channels = X.pick rng [| 1; 2; 4 |] in
  let rec go pairs =
    match pairs with
    | [] -> Pass
    | (phase, s) :: rest -> (
        match Refcheck.covers_phase phase s with
        | Error e -> failf "generator schedule fails reference checker: %s" e
        | Ok () ->
            if lowering_diverges ~channels phase s then
              let witness =
                if ctx.shrink then
                  Shrink.schedule
                    ~still_fails:(lowering_diverges ~channels phase)
                    s
                else s
              in
              let why =
                match
                  Msccl_interp.check_lowering ~channels ~coll:phase [ witness ]
                with
                | Error e -> e
                | Ok () -> "(witness passes after shrinking; original diverged)"
              in
              failf "lower-replay (channels=%d): %s\n%s" channels why
                (pp_schedule witness)
            else go rest)
  in
  go (List.combine phases schedules)

(* ------------------------------------------------------------------ *)

let all =
  [
    { name = "reverse-involution"; heavy = false; check = prop_reverse_involution };
    { name = "scale-linear"; heavy = false; check = prop_scale_linear };
    { name = "union-dominates"; heavy = false; check = prop_union_dominates };
    { name = "automorphism-transport"; heavy = false;
      check = prop_automorphism_transport };
    { name = "generators-agree"; heavy = false; check = prop_generators_agree };
    { name = "mutant-soundness"; heavy = false; check = prop_mutant_soundness };
    { name = "reorder-benign"; heavy = false; check = prop_reorder_benign };
    { name = "registry-fidelity"; heavy = true; check = prop_registry_fidelity };
    { name = "registry-transport"; heavy = true;
      check = prop_registry_transport };
    { name = "registry-memo"; heavy = true; check = prop_registry_memo };
    { name = "size-bucket"; heavy = false; check = prop_size_bucket };
    { name = "lp-differential"; heavy = false; check = prop_lp_differential };
    { name = "sim-differential"; heavy = false; check = prop_sim_differential };
    { name = "sim-port-bound"; heavy = false; check = prop_sim_port_bound };
    { name = "degraded-validity"; heavy = true; check = prop_degraded_validity };
    { name = "fault-orbit-transport"; heavy = false;
      check = prop_fault_orbit_transport };
    { name = "lower-replay"; heavy = false; check = prop_lower_replay };
    { name = "oracle"; heavy = true; check = prop_oracle };
    { name = "synth-history"; heavy = true; check = prop_synth_history };
  ]

let names = List.map (fun p -> p.name) all

let find name = List.find_opt (fun p -> p.name = name) all
