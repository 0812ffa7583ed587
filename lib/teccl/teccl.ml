module Topology = Syccl_topology.Topology
module Collective = Syccl_collective.Collective
module Schedule = Syccl_sim.Schedule
module Sim = Syccl_sim.Sim
module Xrand = Syccl_util.Xrand

type outcome = {
  schedules : Schedule.t list option;
  synth_time : float;
  used_milp : bool;
}

(* Gather-mode chunk metas for one phase; reduce-family phases are mirrored
   (synthesized as the dual gather problem, then reversed, §4.1). *)
let phase_metas coll =
  let mirrored = Collective.is_reduce coll.Collective.kind in
  let metas =
    List.map
      (fun chunk ->
        match chunk with
        | Collective.Gather_chunk { id; size; src; dsts } ->
            { Schedule.size; mode = `Gather; initial = [ src ]; wanted = dsts; tag = id }
        | Collective.Reduce_chunk { id; size; dst; srcs } ->
            { Schedule.size; mode = `Gather; initial = [ dst ]; wanted = srcs; tag = id })
      (Collective.chunks coll)
  in
  (Array.of_list metas, mirrored)

let fastest_link topo =
  let best = ref (Topology.dim topo 0).Topology.link in
  for d = 1 to Topology.num_dims topo - 1 do
    let l = (Topology.dim topo d).Topology.link in
    if l.Syccl_topology.Link.beta < !best.Syccl_topology.Link.beta then best := l
  done;
  !best

let synthesize_phase ~rng ~restarts ~budget ~milp_var_budget topo coll =
  let metas, mirrored = phase_metas coll in
  let rec attempts k best =
    if k = 0 || Syccl_util.Budget.expired budget then best
    else begin
      let r = Xrand.copy rng in
      ignore (Xrand.next_int64 rng);
      match Greedy.solve ~rng:r ~budget topo metas with
      | None -> best
      | Some s ->
          let t = Sim.time topo s in
          let best =
            match best with
            | Some (_, tb) when tb <= t -> best
            | _ -> Some (s, t)
          in
          attempts (k - 1) best
    end
  in
  match attempts restarts None with
  | None -> None
  | Some (greedy_sched, _) ->
      (* Epoch-MILP refinement when the whole-problem model is small enough
         for the from-scratch solver. *)
      let link = fastest_link topo in
      let size = metas.(0).Schedule.size in
      let tau, _ = Tau.select ~link ~size ~e:1.0 (* Appendix A.3 *) in
      let edges = Epoch_model.all_edges topo in
      let spec =
        { Epoch_model.topo; chunks = metas; edges; tau; horizon = max_int / 2 }
      in
      let grid = Epoch_model.replay spec greedy_sched in
      let horizon = match grid with Some g -> Epoch_model.epochs g | None -> 0 in
      let spec = { spec with horizon } in
      let nvars =
        if horizon = 0 then max_int
        else
          (* Cheap over-approximation: sends + has. *)
          Array.length metas
          * ((Array.length edges * horizon)
            + (Topology.num_gpus topo * (horizon + 1)))
      in
      let solved =
        if
          horizon > 0 && nvars <= milp_var_budget
          && Syccl_util.Budget.remaining budget > 0.0
        then begin
          match
            Epoch_model.solve
              ~budget:(Syccl_util.Budget.sub ~seconds:60.0 budget)
              ?incumbent:grid spec
          with
          | Some (refined, _) ->
              let pick =
                if Sim.time topo refined < Sim.time topo greedy_sched then
                  refined
                else greedy_sched
              in
              Some (pick, true)
          | None -> Some (greedy_sched, false)
        end
        else Some (greedy_sched, false)
      in
      (* The mirroring reverse must cover BOTH arms of the refinement
         split: un-parenthesized, `|> Option.map` used to grab only the
         else branch, so MILP-refined reduce phases escaped as gather-mode
         schedules (same simulated cost — reverse is cost-preserving — but
         the wrong computation; the differential fuzz oracle caught it). *)
      Option.map
        (fun (s, used) -> ((if mirrored then Schedule.reverse s else s), used))
        solved

let synthesize ?(seed = 42) ?restarts ?(budget = Syccl_util.Budget.unlimited)
    ?(milp_var_budget = 2500) topo coll =
  let t0 = Syccl_util.Clock.now () in
  let restarts =
    match restarts with
    | Some r -> r
    | None -> if Topology.num_gpus topo <= 64 then 3 else 1
  in
  let rng = Xrand.create seed in
  let phases = Collective.phases coll in
  let rec go acc used = function
    | [] -> Some (List.rev acc, used)
    | phase :: rest -> (
        match
          synthesize_phase ~rng ~restarts ~budget ~milp_var_budget topo phase
        with
        | None -> None
        | Some (s, u) -> go (s :: acc) (used || u) rest)
  in
  match go [] false phases with
  | None ->
      { schedules = None; synth_time = Syccl_util.Clock.elapsed t0; used_milp = false }
  | Some (ss, used) ->
      { schedules = Some ss; synth_time = Syccl_util.Clock.elapsed t0; used_milp = used }

let busbw ?blocks topo coll outcome =
  Option.map
    (fun ss ->
      let time = Sim.phases_time ?blocks topo ss in
      Collective.busbw coll ~time)
    outcome.schedules
