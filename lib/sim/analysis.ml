module Topology = Syccl_topology.Topology
module Link = Syccl_topology.Link

type port_stats = {
  gpu : int;
  port_group : int;
  dir : [ `Egress | `Ingress ];
  busy : float;
  utilization : float;
}

type t = {
  makespan : float;
  total_bytes : float;
  dim_bytes : float array;
  dim_alpha_s : float array;
  dim_beta_s : float array;
  ports : port_stats list;
  bottleneck : port_stats option;
  avg_hops : float;
}

let analyze ?blocks topo (s : Schedule.t) =
  let report = Sim.run ?blocks topo s in
  let makespan = report.Sim.time in
  let nd = Topology.num_dims topo in
  let dim_bytes = Array.make nd 0.0 in
  let dim_alpha_s = Array.make nd 0.0 in
  let dim_beta_s = Array.make nd 0.0 in
  let busy = Hashtbl.create 64 in
  let add key b =
    Hashtbl.replace busy key (b +. Option.value (Hashtbl.find_opt busy key) ~default:0.0)
  in
  let total_bytes = ref 0.0 in
  List.iter
    (fun (x : Schedule.xfer) ->
      let d = Topology.dim topo x.dim in
      let size = s.Schedule.chunks.(x.chunk).Schedule.size in
      let b = Link.busy_time d.Topology.link size in
      total_bytes := !total_bytes +. size;
      dim_bytes.(x.dim) <- dim_bytes.(x.dim) +. size;
      dim_alpha_s.(x.dim) <- dim_alpha_s.(x.dim) +. d.Topology.link.Link.alpha;
      dim_beta_s.(x.dim) <- dim_beta_s.(x.dim) +. b;
      add (x.src, d.Topology.port_group, `Egress) b;
      add (x.dst, d.Topology.port_group, `Ingress) b)
    s.Schedule.xfers;
  let ports =
    Hashtbl.fold
      (fun (gpu, port_group, dir) b acc ->
        { gpu; port_group; dir; busy = b; utilization = (if makespan > 0.0 then b /. makespan else 0.0) }
        :: acc)
      busy []
    |> List.sort (fun a b -> Float.compare b.busy a.busy)
  in
  let deliveries =
    Array.fold_left
      (fun acc (c : Schedule.chunk_meta) ->
        acc
        +
        match c.Schedule.mode with
        | `Gather -> List.length c.Schedule.wanted
        | `Reduce -> List.length c.Schedule.initial)
      0 s.Schedule.chunks
  in
  {
    makespan;
    total_bytes = !total_bytes;
    dim_bytes;
    dim_alpha_s;
    dim_beta_s;
    ports;
    bottleneck = (match ports with [] -> None | p :: _ -> Some p);
    avg_hops =
      (if deliveries = 0 then 0.0
       else float_of_int (Schedule.num_xfers s) /. float_of_int deliveries);
  }

let alpha_share t d =
  let a = t.dim_alpha_s.(d) and b = t.dim_beta_s.(d) in
  if a +. b <= 0.0 then 0.0 else a /. (a +. b)

let timeline ?(width = 60) ?(limit = 40) topo (s : Schedule.t) =
  let report = Sim.run topo s in
  let makespan = Float.max report.Sim.time 1e-12 in
  let xa = Array.of_list s.Schedule.xfers in
  let rows =
    Array.to_list
      (Array.mapi
         (fun i (x : Schedule.xfer) ->
           let finish = report.Sim.xfer_finish.(i) in
           let d = Topology.dim topo x.dim in
           let dur =
             Link.transfer_time d.Topology.link s.Schedule.chunks.(x.chunk).Schedule.size
           in
           (Float.max 0.0 (finish -. dur), finish, x))
         xa)
    |> List.sort (fun (_, a, _) (_, b, _) -> Float.compare a b)
  in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "%-18s %s (makespan %.1f us)\n" "transfer" "timeline"
       (makespan *. 1e6));
  List.iteri
    (fun i (start, finish, (x : Schedule.xfer)) ->
      if i < limit then begin
        let cell t = int_of_float (t /. makespan *. float_of_int (width - 1)) in
        let a = cell start and b = max (cell start) (cell finish) in
        let bar =
          String.init width (fun j -> if j >= a && j <= b then '#' else '.')
        in
        Buffer.add_string buf
          (Printf.sprintf "c%-3d %3d->%-3d d%d %s\n" x.chunk x.src x.dst x.dim bar)
      end)
    rows;
  if List.length rows > limit then
    Buffer.add_string buf (Printf.sprintf "... (%d more)\n" (List.length rows - limit));
  Buffer.contents buf
