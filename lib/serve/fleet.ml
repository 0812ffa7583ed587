module Collective = Syccl_collective.Collective
module Synthesizer = Syccl.Synthesizer

(* Fleet warming pre-populates the registry with one {e anchor} entry per
   (topology family, collective, size bucket): root 0, one exact size per
   bucket of the grid.  That is all the symmetry-aware probe needs — a
   production request at any other root is served by transporting the
   anchor along a stabilizer rotation, and a request in an adjacent bucket
   by rescaling it — so a cold family reaches hit-rate saturation at
   anchor cost, not grid cost. *)

(* Every named Builders family the request parser knows.  h800-512 is
   deliberately last: at 512 GPUs it is by far the most expensive to
   anchor, and an interrupted warm should have finished the rest first. *)
let default_families =
  [ "a100-16"; "a100-32"; "fig3"; "fig19"; "fig20"; "h800-64"; "h800-512" ]

(* Small instances of the same generic multirail structure as the big
   families, cheap enough for the bench gate under dune runtest. *)
let smoke_families = [ "multirail:2x2"; "multirail:2x4" ]

(* SendRecv is excluded: it needs an explicit peer per request, and the
   probe transports (root, peer) pairs only when one stabilizer rotation
   moves both, so anchors at (0, 0) would not cover the pair grid. *)
let default_collectives =
  [
    "allgather";
    "alltoall";
    "reducescatter";
    "allreduce";
    "broadcast";
    "scatter";
    "gather";
    "reduce";
  ]

(* One anchor per power-of-two bucket across the serving sweet spot:
   64 KiB (bucket 16), 1 MiB (20), 16 MiB (24). *)
let default_anchors = [ 65536.0; 1048576.0; 16777216.0 ]

(* Two buckets for the smoke grid (16 and 18), leaving odd buckets empty
   so the production grid exercises cross-bucket serving. *)
let smoke_anchors = [ 65536.0; 262144.0 ]

(* The adjacent-bucket production size for an anchor: 2.25× lands exactly
   one bucket up, so the anchor is always the lower neighbour. *)
let cross_size a = a *. 2.25

let rooted_name name =
  match String.lowercase_ascii name with
  | "broadcast" | "bcast" | "reduce" | "scatter" | "gather" | "sendrecv" ->
      true
  | _ -> false

type family = {
  family : string;
  anchors : int;  (** anchor requests issued (collectives × sizes) *)
  stored : int;  (** anchors synthesized and persisted *)
  already_hit : int;  (** anchors the registry already served *)
  failed : int;  (** anchors synthesized but not persisted *)
}

type stats = {
  families : family list;
  anchors : int;
  stored : int;
  already_hit : int;
  failed : int;
}

let warm ~registry ?audit ?(config = Synthesizer.default_config)
    ?(families = default_families) ?(collectives = default_collectives)
    ?(anchors = default_anchors) () =
  let per_family =
    List.map
      (fun name ->
        let requests =
          List.concat_map
            (fun collective ->
              List.map
                (fun size ->
                  Request.make ~config ~topology:name ~collective ~size ())
                anchors)
            collectives
        in
        let outcomes = Serve.run_batch ~registry ?audit requests in
        let stored, already_hit, failed =
          List.fold_left
            (fun (s, h, f) (o : Serve.outcome) ->
              match o.Serve.source with
              | Serve.From_registry _ -> (s, h + 1, f)
              | Serve.From_synthesis ->
                  if o.Serve.stored then (s + 1, h, f) else (s, h, f + 1))
            (0, 0, 0) outcomes
        in
        {
          family = name;
          anchors = List.length requests;
          stored;
          already_hit;
          failed;
        })
      families
  in
  let sum field = List.fold_left (fun a (f : family) -> a + field f) 0 per_family in
  {
    families = per_family;
    anchors = sum (fun f -> f.anchors);
    stored = sum (fun f -> f.stored);
    already_hit = sum (fun f -> f.already_hit);
    failed = sum (fun f -> f.failed);
  }

(* The cold-production request grid for one family: everything a warmed
   registry should serve {e without} another synthesis, and none of it
   under an anchor's exact key.  Rooted collectives sweep every non-zero
   root at each anchor size (transported hits); every collective also asks
   one bucket above each anchor (cross-bucket rescaled hits). *)
let production_grid ?(config = Synthesizer.default_config) ~family
    ~collectives ~anchors () =
  let n =
    Syccl_topology.Topology.num_gpus (Request.topo_of_name family)
  in
  List.concat_map
    (fun collective ->
      let transported =
        if rooted_name collective then
          List.concat_map
            (fun size ->
              List.init (n - 1) (fun r ->
                  Request.make ~config ~root:(r + 1) ~topology:family
                    ~collective ~size ()))
            anchors
        else []
      in
      let cross =
        List.map
          (fun size ->
            Request.make ~config ~topology:family ~collective
              ~size:(cross_size size) ())
          anchors
      in
      transported @ cross)
    collectives
