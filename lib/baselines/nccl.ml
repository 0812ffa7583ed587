module Topology = Syccl_topology.Topology
module Collective = Syccl_collective.Collective
module Schedule = Syccl_sim.Schedule
module Sim = Syccl_sim.Sim
module Validate = Syccl_sim.Validate

let best ?blocks topo candidates =
  match candidates with
  | [] -> invalid_arg "Nccl.best: no candidates"
  | first :: rest ->
      let score c = Sim.phases_time ?blocks topo c in
      List.fold_left
        (fun (bc, bt) c ->
          let t = score c in
          if t < bt then (c, t) else (bc, bt))
        (first, score first) rest
      |> fst

(* The tuner model: build every candidate algorithm, keep the ones that
   actually apply to this topology (a ring needs consecutive servers to be
   connected; a tree needs its heap edges to exist — on rail-optimized
   clusters without a spine they may not) AND pass strict demand
   validation, then pick the fastest by simulation.  A real tuner never
   serves an algorithm whose communication pattern the fabric cannot
   express or that computes the wrong thing. *)
let best_valid ?blocks topo coll candidates =
  let viable =
    List.filter_map
      (fun gen ->
        match gen () with
        | exception _ -> None
        | phases -> (
            match Validate.validate topo coll phases with
            | Ok () -> Some phases
            | Error _ -> None))
      candidates
  in
  match viable with
  | [] ->
      failwith
        (Printf.sprintf "Nccl.schedule: no applicable algorithm for %s"
           (Collective.kind_name coll.Collective.kind))
  | [ only ] -> only (* simulator-free when there is nothing to tune *)
  | _ -> best ?blocks topo viable

(* Kinds NCCL does not tune keep their fixed preference order — the first
   candidate that builds and validates wins, with no simulation (the
   fallback ladder leans on these paths staying simulator-free). *)
let first_valid topo coll candidates =
  let rec go = function
    | [] ->
        failwith
          (Printf.sprintf "Nccl.schedule: no applicable algorithm for %s"
             (Collective.kind_name coll.Collective.kind))
    | gen :: rest -> (
        match gen () with
        | exception _ -> go rest
        | phases -> (
            match Validate.validate topo coll phases with
            | Ok () -> phases
            | Error _ -> go rest))
  in
  go candidates

let schedule topo coll =
  match coll.Collective.kind with
  | Collective.AllGather ->
      first_valid topo coll
        [
          (fun () -> [ Ring.allgather topo coll ]);
          (fun () -> [ Direct.allgather topo coll ]);
        ]
  | Collective.ReduceScatter ->
      first_valid topo coll
        [
          (fun () -> [ Ring.reducescatter topo coll ]);
          (fun () -> [ Direct.reducescatter topo coll ]);
        ]
  | Collective.AllToAll ->
      first_valid topo coll
        ((if Common.rail_structure topo <> None then
            [ (fun () -> [ Pxn.alltoall topo coll ]) ]
          else [])
        @ [ (fun () -> [ Direct.alltoall topo coll ]) ])
  | Collective.Broadcast ->
      best_valid topo coll
        [
          (fun () -> [ Tree.broadcast topo coll ]);
          (fun () -> [ Direct.broadcast topo coll ]);
        ]
  | Collective.Reduce ->
      first_valid topo coll
        [
          (fun () -> [ Tree.reduce topo coll ]);
          (fun () -> [ Direct.reduce topo coll ]);
        ]
  | Collective.AllReduce ->
      let n = coll.Collective.n and size = coll.Collective.size in
      let rs = Collective.make Collective.ReduceScatter ~n ~size in
      let ag = Collective.make Collective.AllGather ~n ~size in
      best_valid topo coll
        [
          (fun () -> [ Ring.reducescatter topo rs; Ring.allgather topo ag ]);
          (* Reduce-then-broadcast is a real NCCL algorithm, but it cannot
             express the ReduceScatter+AllGather phase contract every
             AllReduce outcome is validated against — the filter screens
             it out rather than letting simulated speed pick an invalid
             schedule (sub-byte sizes used to lose this race). *)
          (fun () -> Tree.allreduce_phases topo coll);
          (fun () ->
            [ Direct.reducescatter topo rs; Direct.allgather topo ag ]);
        ]
  | Collective.SendRecv ->
      (* Routed through Direct so a peer pair with no shared dimension
         relays instead of failing. *)
      [
        Direct.from_chunks topo
          [|
            {
              Schedule.size = coll.Collective.size;
              mode = `Gather;
              initial = [ coll.Collective.root ];
              wanted = [ coll.Collective.peer ];
              tag = 0;
            };
          |];
      ]
  | Collective.Scatter | Collective.Gather ->
      (* Gather is built forward from its own demand chunks (each source
         one-hop or relayed to the root), not by reversing a Scatter:
         reversal flips the chunks to `Reduce mode, which computes a
         reduction where the demand asks for a concatenation. *)
      [ Direct.from_chunks topo (Direct.gather_metas coll) ]

let time ?blocks topo coll = Sim.phases_time ?blocks topo (schedule topo coll)

let busbw ?blocks topo coll = Collective.busbw coll ~time:(time ?blocks topo coll)
