module Topology = Syccl_topology.Topology
module Fault = Syccl_topology.Fault
module Builders = Syccl_topology.Builders
module Collective = Syccl_collective.Collective
module Json = Syccl_util.Json
module Synthesizer = Syccl.Synthesizer

type t = {
  topo_name : string;
  topo : Topology.t;
  coll : Collective.t;
  config : Synthesizer.config;
}

(* Moved here from the CLI so every front-end (synth/sweep/batch/warm,
   tests, benches) resolves the same names. *)
let topo_of_name name =
  match name with
  | "a100-16" -> Builders.a100 ~servers:2
  | "a100-32" -> Builders.a100 ~servers:4
  | "h800-64" -> Builders.h800 ~servers:8
  | "h800-512" -> Builders.h800 ~servers:64
  | "fig3" -> Builders.fig3 ()
  | "fig19" -> Builders.fig19 ()
  | "fig20" -> Builders.fig20 ()
  | s -> (
      (* "multirail:<servers>x<gpus>" builds a generic H800-like cluster. *)
      match String.split_on_char ':' s with
      | [ "multirail"; dims ] -> (
          match String.split_on_char 'x' dims with
          | [ a; b ] ->
              Builders.h800_scaled ~servers:(int_of_string a)
                ~gpus_per_server:(int_of_string b)
          | _ -> failwith "expected multirail:<servers>x<gpus>")
      | _ ->
          failwith
            (Printf.sprintf
               "unknown topology %s (try a100-16, a100-32, h800-64, h800-512, \
                fig3, fig19, fig20, multirail:SxG)"
               s))

let coll_of_name ?root ?peer name ~n ~size =
  let kind =
    match String.lowercase_ascii name with
    | "sendrecv" -> Collective.SendRecv
    | "allgather" | "ag" -> Collective.AllGather
    | "alltoall" | "a2a" -> Collective.AllToAll
    | "reducescatter" | "rs" -> Collective.ReduceScatter
    | "allreduce" | "ar" -> Collective.AllReduce
    | "broadcast" | "bcast" -> Collective.Broadcast
    | "reduce" -> Collective.Reduce
    | "scatter" -> Collective.Scatter
    | "gather" -> Collective.Gather
    | s -> failwith ("unknown collective " ^ s)
  in
  Collective.make ?root ?peer kind ~n ~size

let make ?(config = Synthesizer.default_config) ?root ?peer
    ?(faults = Fault.empty) ~topology ~collective ~size () =
  let topo = topo_of_name topology in
  let topo = if Fault.is_empty faults then topo else Topology.puncture topo faults in
  let coll =
    coll_of_name ?root ?peer collective ~n:(Topology.num_gpus topo) ~size
  in
  { topo_name = topology; topo; coll; config }

let faults t = Topology.faults t.topo

(* The request key covers every input the outcome depends on.  Structural
   topology identity (fingerprint — which folds in the fault set of a
   punctured topology) rather than the name, the exact demand, and the
   schedule-affecting config knobs; [domains] is excluded because
   synthesis is deterministic in pool width, so requests differing only in
   parallelism are the same work.  The canonical string keeps its v1
   layout, so keys already stored in registry entries and audit trails
   still match: the positions of E1, R1, R2, the MILP variable cap and
   the shape and combination caps — config fields in v1, constants of the
   synthesizer now — hold a fixed segment of their values. *)
let key t =
  let c = t.config in
  let canon =
    Printf.sprintf "syccl-request-v1;%s;%s;root=%d;peer=%d;size=%h;%b;%h;%h;%h;%h;%d;%d;%h;%d;%d;%d"
      (Topology.fingerprint t.topo)
      (Collective.kind_name t.coll.Collective.kind)
      t.coll.Collective.root t.coll.Collective.peer t.coll.Collective.size
      c.Synthesizer.fast_only
      (match c.Synthesizer.deadline with None -> -1.0 | Some d -> d)
      3.0 c.Synthesizer.e2 0.20 8 1100 c.Synthesizer.milp_time_limit
      c.Synthesizer.milp_node_limit 18 64
  in
  Digest.to_hex (Digest.string canon)

let to_json t =
  let c = t.config in
  Json.Obj
    [
      ("schema_version", Json.Num 1.0);
      ("topology", Json.Str t.topo_name);
      ( "collective",
        Json.Str
          (String.lowercase_ascii (Collective.kind_name t.coll.Collective.kind))
      );
      ("size", Json.Num t.coll.Collective.size);
      ("root", Json.Num (float_of_int t.coll.Collective.root));
      ("peer", Json.Num (float_of_int t.coll.Collective.peer));
      ( "faults",
        match Fault.encode (faults t) with
        | "" -> Json.Null
        | s -> Json.Str s );
      ("fast", Json.Bool c.Synthesizer.fast_only);
      ("domains", Json.Num (float_of_int c.Synthesizer.domains));
      ( "deadline",
        match c.Synthesizer.deadline with
        | None -> Json.Null
        | Some d -> Json.Num d );
    ]

let of_json ?(defaults = Synthesizer.default_config) j =
  let fields =
    match j with
    | Json.Obj fields -> fields
    | _ -> raise (Json.Parse_error "request must be a JSON object")
  in
  let opt name = List.assoc_opt name fields in
  let required name =
    match opt name with
    | Some v -> v
    | None -> raise (Json.Parse_error ("request is missing \"" ^ name ^ "\""))
  in
  (match opt "schema_version" with
  | None | Some (Json.Num 1.0) -> ()
  | Some v ->
      raise
        (Json.Parse_error
           ("unsupported request schema_version " ^ Json.to_string v)));
  let topology = Json.to_str (required "topology") in
  let collective = Json.to_str (required "collective") in
  let size = Json.to_float (required "size") in
  let bool_field name default =
    match opt name with
    | None | Some Json.Null -> default
    | Some (Json.Bool b) -> b
    | Some _ -> raise (Json.Parse_error ("\"" ^ name ^ "\" must be a boolean"))
  in
  let int_field name default =
    match opt name with
    | None | Some Json.Null -> default
    | Some v -> Json.to_int v
  in
  let fast_only = bool_field "fast" defaults.Synthesizer.fast_only in
  let domains = int_field "domains" defaults.Synthesizer.domains in
  let deadline =
    match opt "deadline" with
    | None -> defaults.Synthesizer.deadline
    | Some Json.Null -> None
    | Some v -> Some (Json.to_float v)
  in
  let root = int_field "root" 0 and peer = int_field "peer" 0 in
  let faults =
    match opt "faults" with
    | None | Some Json.Null -> Fault.empty
    | Some v -> Fault.decode (Json.to_str v)
  in
  let config = { defaults with Synthesizer.fast_only; domains; deadline } in
  make ~config ~root ~peer ~faults ~topology ~collective ~size ()

let pp fmt t =
  Format.fprintf fmt "%a on %s%s%s" Collective.pp t.coll t.topo_name
    (match Fault.encode (faults t) with
    | "" -> ""
    | s -> " faults=" ^ s)
    (if t.config.Synthesizer.fast_only then " (fast)" else "")
