(** Schedule analysis: where the bytes go and which port is the bottleneck.

    Rendered for readers by {!Syccl.Explain.outcome} (the CLI's [explain],
    with [--timeline] adding {!timeline}), and used by tests asserting
    structural properties of synthesized schedules (e.g. "NVLink:NIC
    traffic matches the capacity ratio", the §2.1 diagnosis). *)

type port_stats = {
  gpu : int;
  port_group : int;
  dir : [ `Egress | `Ingress ];
  busy : float;  (** total seconds the port transmits *)
  utilization : float;  (** busy / makespan *)
}

type t = {
  makespan : float;
  total_bytes : float;  (** bytes moved over all transfers *)
  dim_bytes : float array;  (** bytes per topology dimension *)
  dim_alpha_s : float array;
      (** per-dimension latency seconds: Σ α over the dimension's
          transfers — the fixed cost the α-β model charges per hop *)
  dim_beta_s : float array;
      (** per-dimension serialization seconds: Σ β·size — the bandwidth
          cost.  [dim_alpha_s.(d) /. (dim_alpha_s.(d) +. dim_beta_s.(d))]
          is the dimension's α share: near 1 means the schedule is
          latency-bound there (too many small hops), near 0
          bandwidth-bound *)
  ports : port_stats list;  (** every active port, busiest first *)
  bottleneck : port_stats option;
  avg_hops : float;  (** transfers per chunk delivery *)
}

val analyze : ?blocks:int -> Syccl_topology.Topology.t -> Schedule.t -> t

val alpha_share : t -> int -> float
(** [alpha_share t d]: fraction of dimension [d]'s total wire time that is
    α (latency); 0 when the dimension carried no transfer. *)

val timeline :
  ?width:int -> ?limit:int -> Syccl_topology.Topology.t -> Schedule.t -> string
(** Text Gantt chart of transfers ordered by finish time ([limit] rows,
    default 40). *)
