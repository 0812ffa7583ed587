module Topology = Syccl_topology.Topology
module Fault = Syccl_topology.Fault
module Collective = Syccl_collective.Collective
module Perm = Syccl_util.Perm
module Counters = Syccl_util.Counters
module Transport = Syccl_sim.Transport
module Synthesizer = Syccl.Synthesizer

(* Every intra-group edge of every dimension — the default single-element
   fault universe. *)
let link_elements topo =
  let out = ref [] in
  for d = Topology.num_dims topo - 1 downto 0 do
    for g = Topology.groups_count topo ~dim:d - 1 downto 0 do
      let members = Topology.gpus_in_group topo ~dim:d ~group:g in
      let m = Array.length members in
      for i = m - 1 downto 0 do
        for j = m - 1 downto i + 1 do
          out :=
            Fault.Link { dim = d; a = members.(i); b = members.(j) } :: !out
        done
      done
    done
  done;
  !out

(* One NIC element per (GPU, port group present in the topology): the NIC
   serving that port group on that GPU.  Demand-preserving — every rank
   stays alive — so these classes are warmable like links. *)
let nic_elements topo =
  let port_groups =
    Array.to_list topo.Topology.dims
    |> List.map (fun d -> d.Topology.port_group)
    |> List.sort_uniq compare
  in
  List.concat_map
    (fun pg ->
      List.init (Topology.num_gpus topo) (fun g ->
          Fault.Nic { gpu = g; port_group = pg }))
    port_groups

(* Whole-GPU elements.  Servable (puncture accepts them) but not warmable:
   losing a rank changes the collective demand itself, so there is no one
   collective to pre-warm — {!warm} enumerates these classes only to count
   them as skipped. *)
let gpu_elements topo =
  List.init (Topology.num_gpus topo) (fun g -> Fault.Gpu g)

let fault_elements topo =
  link_elements topo @ nic_elements topo @ gpu_elements topo

let demand_changing faults =
  List.exists
    (function Fault.Gpu _ -> true | Fault.Link _ | Fault.Nic _ -> false)
    (Fault.elements faults)

let fault_sets ?elements topo ~k =
  if k < 1 then invalid_arg "Failover.fault_sets: k must be >= 1";
  let elts =
    match elements with Some e -> e | None -> link_elements topo
  in
  (* All subsets of size <= k.  Each subset is either without the head
     element or with it, so no subset is produced twice. *)
  let rec combos k = function
    | _ when k = 0 -> [ [] ]
    | [] -> [ [] ]
    | e :: rest ->
        combos k rest @ List.map (fun c -> e :: c) (combos (k - 1) rest)
  in
  combos k elts
  |> List.filter (fun c -> c <> [])
  |> List.map Fault.of_list
  |> List.sort_uniq Fault.compare

(* The subgroup of the rotation group that preserves the collective: a
   transported schedule solves the collective with its endpoints permuted,
   so rooted kinds confine transport to rotations fixing the root (and the
   peer, for SendRecv).  Non-rooted kinds are symmetric under everything. *)
let symmetry_group topo (coll : Collective.t) =
  let group = Topology.rotation_group (Topology.base topo) in
  let fixes p v = Perm.apply p v = v in
  match coll.Collective.kind with
  | Collective.AllGather | Collective.AllToAll | Collective.ReduceScatter
  | Collective.AllReduce ->
      group
  | Collective.SendRecv ->
      List.filter
        (fun p ->
          fixes p coll.Collective.root && fixes p coll.Collective.peer)
        group
  | Collective.Broadcast | Collective.Scatter | Collective.Gather
  | Collective.Reduce ->
      List.filter (fun p -> fixes p coll.Collective.root) group

let orbits ?elements topo coll ~k =
  Perm.orbit_classes
    ~group:(symmetry_group topo coll)
    ~image:(fun f p -> Fault.map p f)
    ~compare:Fault.compare
    (fault_sets ?elements topo ~k)

type stats = {
  sets : int;
  orbits : int;
  rep_hits : int;
  rep_synthesized : int;
  transported : int;
  resynthesized : int;
  skipped : int;
  skipped_demand : int;
}

let warm ~registry ?audit ?(config = Synthesizer.default_config) ~topology
    ~collective ~size k =
  let healthy = Request.make ~config ~topology ~collective ~size () in
  let topo = healthy.Request.topo in
  let coll = healthy.Request.coll in
  let group = symmetry_group topo coll in
  (* The warming universe covers links and NICs (demand-preserving) plus
     whole GPUs.  A dead rank changes the demand's very shape — n drops by
     one — so GPU classes cannot be pre-warmed for this collective; they
     are enumerated, counted, and skipped. *)
  let classes = orbits ~elements:(fault_elements topo) topo coll ~k in
  let demand_classes, classes =
    List.partition (fun (rep, _) -> demand_changing rep) classes
  in
  let sets = List.fold_left (fun a (_, ms) -> a + List.length ms) 0 classes in
  let stats =
    ref
      {
        sets;
        orbits = List.length classes;
        rep_hits = 0;
        rep_synthesized = 0;
        transported = 0;
        resynthesized = 0;
        skipped = 0;
        skipped_demand = List.length demand_classes;
      }
  in
  Counters.add "failover.skipped_demand" (List.length demand_classes);
  let bump f = stats := f !stats in
  (* Synthesizing a member from scratch is the correctness net under every
     transport failure: the orbit machinery is an optimization, never the
     only path to a warmed entry. *)
  let resynthesize req =
    ignore (Serve.run ~registry ?audit req);
    bump (fun s -> { s with resynthesized = s.resynthesized + 1 })
  in
  List.iter
    (fun (rep, members) ->
      let req =
        Request.make ~config ~faults:rep ~topology ~collective ~size ()
      in
      let o = Serve.run ~registry ?audit req in
      (match o.Serve.source with
      | Serve.From_registry _ -> bump (fun s -> { s with rep_hits = s.rep_hits + 1 })
      | Serve.From_synthesis ->
          bump (fun s -> { s with rep_synthesized = s.rep_synthesized + 1 }));
      let synth = o.Serve.synth in
      let rest = List.filter (fun f -> not (Fault.equal f rep)) members in
      if
        synth.Synthesizer.degraded <> Synthesizer.Full
        || config.Synthesizer.fast_only
      then
        (* A degraded representative would seed the whole orbit with
           degraded entries; leave the members cold instead (the same
           Full-only policy {!Serve} applies to stores). *)
        bump (fun s -> { s with skipped = s.skipped + List.length rest })
      else
        List.iter
          (fun member ->
            let p =
              List.find
                (fun p -> Fault.equal (Fault.map p rep) member)
                group
            in
            let req =
              Request.make ~config ~faults:member ~topology ~collective ~size
                ()
            in
            (* The transported schedule is admitted like any stored one,
               then stored at its simulated cost by the serving policy. *)
            match
              Option.map
                (Registry.admit ~blocks:config.Synthesizer.blocks
                   req.Request.topo coll ~size:coll.Collective.size)
                (Transport.schedules p coll coll synth.Synthesizer.schedules)
            with
            | None | Some (Error _) -> resynthesize req
            | Some (Ok (schedules, time)) ->
                if
                  Serve.store registry req
                    (Synthesizer.unsynthesized coll
                       ~chosen:(synth.Synthesizer.chosen ^ "+transport")
                       ~time schedules)
                then bump (fun s -> { s with transported = s.transported + 1 })
                else bump (fun s -> { s with skipped = s.skipped + 1 }))
          rest)
    classes;
  !stats
