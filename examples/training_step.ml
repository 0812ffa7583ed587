(* Table-6-style end-to-end experiment: iteration time of GPT3-6.7B and
   Llama3-8B training under data/tensor parallelism, with communication
   schedules from NCCL, TECCL, and SyCCL.

   Run with: dune exec examples/training_step.exe *)

module Workload = Syccl_workload.Workload
module Builders = Syccl_topology.Builders
module Topology = Syccl_topology.Topology

let () =
  let config = { Syccl.Synthesizer.default_config with fast_only = true } in
  Format.printf "%-18s %10s %10s %10s %9s %9s@." "model/parallelism" "NCCL"
    "TECCL" "SyCCL" "vs NCCL" "vs TECCL";
  List.iter
    (fun (w : Workload.t) ->
      let topo =
        if w.num_gpus = 16 then Builders.a100 ~servers:2
        else Builders.a100 ~servers:4
      in
      let nccl coll = Syccl_baselines.Nccl.time topo coll in
      let teccl coll =
        match
          (Syccl_teccl.Teccl.synthesize
             ~budget:(Syccl_util.Budget.create ~seconds:30.0 ())
             topo coll)
            .schedules
        with
        | Some ss -> Syccl_sim.Sim.phases_time topo ss
        | None -> nccl coll
      in
      let syccl coll = (Syccl.Synthesizer.synthesize ~config topo coll).time in
      let t_nccl = Workload.iteration_ms w ~comm_time:nccl in
      let t_teccl = Workload.iteration_ms w ~comm_time:teccl in
      let t_syccl = Workload.iteration_ms w ~comm_time:syccl in
      Format.printf "%-18s %10.1f %10.1f %10.1f %8.1f%% %8.1f%%@." w.wname t_nccl
        t_teccl t_syccl
        ((t_nccl -. t_syccl) /. t_nccl *. 100.0)
        ((t_teccl -. t_syccl) /. t_teccl *. 100.0))
    (Workload.all ())
