(* Randomized end-to-end properties of the sub-demand solver and the greedy:
   every produced sub-schedule must satisfy its demand, regardless of the
   demand's shape. *)

module T = Syccl_topology.Topology
module Builders = Syccl_topology.Builders
module Link = Syccl_topology.Link
module Schedule = Syccl_sim.Schedule
module Sim = Syccl_sim.Sim
module Tau = Syccl_teccl.Tau
module Subsolver = Syccl.Subsolver
module Xrand = Syccl_util.Xrand

let qtest = QCheck_alcotest.to_alcotest
let check = Alcotest.check

(* Causal satisfaction check for a list of gather metas and transfers. *)
let satisfies (metas : Schedule.chunk_meta array) (xfers : Schedule.xfer list) =
  let ok = ref true in
  Array.iteri
    (fun c (m : Schedule.chunk_meta) ->
      let mine = List.filter (fun (x : Schedule.xfer) -> x.chunk = c) xfers in
      let holders = Hashtbl.create 8 in
      List.iter (fun v -> Hashtbl.replace holders v ()) m.initial;
      let remaining = ref mine and progress = ref true in
      while !progress do
        progress := false;
        let still = ref [] in
        List.iter
          (fun (x : Schedule.xfer) ->
            if Hashtbl.mem holders x.src then begin
              Hashtbl.replace holders x.dst ();
              progress := true
            end
            else still := x :: !still)
          !remaining;
        remaining := !still
      done;
      if !remaining <> [] then ok := false;
      List.iter (fun v -> if not (Hashtbl.mem holders v) then ok := false) m.wanted)
    metas;
  !ok

(* Random merged sub-demand in one group of a multirail cluster. *)
let random_demand rng topo =
  let dim = Xrand.int rng (T.num_dims topo) in
  let group = Xrand.int rng (T.groups_count topo ~dim) in
  let members = T.gpus_in_group topo ~dim ~group in
  let np = Array.length members in
  let n_entries = 1 + Xrand.int rng 4 in
  let entries =
    List.init n_entries (fun i ->
        let src = members.(Xrand.int rng np) in
        let dsts =
          Array.to_list members
          |> List.filter (fun v -> v <> src && Xrand.bool rng)
        in
        let dsts = if dsts = [] then [ members.((Xrand.int rng (np - 1) + 1 + src) mod np) ] else dsts in
        let dsts = List.filter (fun v -> v <> src) dsts in
        let dsts =
          if dsts = [] then [ (if src = members.(0) then members.(1) else members.(0)) ]
          else dsts
        in
        {
          Subsolver.chunk = i;
          e_size = 1024.0 *. float_of_int (1 + Xrand.int rng 1024);
          e_srcs = [ src ];
          e_dsts = List.sort_uniq compare dsts;
        })
  in
  { Subsolver.d_stage = 0; d_dim = dim; d_group = group; entries }

let solve_demand_satisfies_prop =
  QCheck.Test.make ~name:"solve_demand always satisfies its demand" ~count:60
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Xrand.create seed in
      let topo = Builders.h800 ~servers:2 in
      let d = random_demand rng topo in
      let xfers = Subsolver.solve_demand Subsolver.Fast_only topo d in
      let metas =
        Array.of_list
          (List.map
             (fun (e : Subsolver.entry) ->
               { Schedule.size = e.Subsolver.e_size; mode = `Gather;
                 initial = e.Subsolver.e_srcs; wanted = e.Subsolver.e_dsts; tag = 0 })
             d.Subsolver.entries)
      in
      satisfies metas xfers
      (* and every transfer stays inside the demand's group/dimension *)
      && List.for_all
           (fun (x : Schedule.xfer) ->
             x.dim = d.Subsolver.d_dim
             && T.group_of topo ~dim:x.dim x.src = d.Subsolver.d_group)
           xfers)

let tau_busy_at_least_one_prop =
  QCheck.Test.make ~name:"epoch timing is at least one epoch" ~count:100
    QCheck.(pair (float_range 0.1 10.0) (int_range 10 28))
    (fun (e, log2size) ->
      let link = Link.make ~alpha:2e-6 ~gbps:50.0 in
      let size = Float.of_int (1 lsl log2size) in
      let tau, r = Tau.select ~link ~size ~e in
      let lat, busy = Tau.epochs_for ~link ~size ~tau in
      tau > 0.0 && r > 0.0 && lat >= 1 && busy >= 1 && lat >= busy)

let test_transfer_rejects_mismatched () =
  (* Transferring a representative solution onto a demand of a different
     shape must fail verification, not silently corrupt. *)
  let topo = Builders.h800 ~servers:2 in
  let mk srcs dsts =
    { Subsolver.d_stage = 0; d_dim = 0; d_group = 0;
      entries = [ { Subsolver.chunk = 0; e_size = 1e4; e_srcs = srcs; e_dsts = dsts } ] }
  in
  let rep = mk [ 0 ] [ 1; 2 ] in
  let other = mk [ 0 ] [ 1; 2; 3; 4 ] in
  let rep_xfers = Subsolver.solve_demand Subsolver.Fast_only topo rep in
  check Alcotest.bool "mismatched shapes rejected" true
    (Subsolver.transfer topo ~rep ~rep_xfers other = None)

let suite =
  [
    qtest solve_demand_satisfies_prop;
    qtest tau_busy_at_least_one_prop;
    ("transfer rejects mismatched", `Quick, test_transfer_rejects_mismatched);
  ]
