module Perm = Syccl_util.Perm
module Mixed_radix = Syccl_util.Mixed_radix

type dim = {
  dim_name : string;
  free_axes : bool array;
  link : Link.t;
  port_group : int;
  groups : int array array;
  group_of : int array;
}

type t = {
  name : string;
  shape : int array;
  num_gpus : int;
  dims : dim array;
  faults : Fault.t;
}

let build_dim ~shape ~num_gpus (dim_name, free_list, link, port_group) =
  let k = Array.length shape in
  if free_list = [] then invalid_arg "Topology.make: empty free-axis list";
  List.iter
    (fun a -> if a < 0 || a >= k then invalid_arg "Topology.make: axis out of range")
    free_list;
  let free_axes = Array.make k false in
  List.iter (fun a -> free_axes.(a) <- true) free_list;
  (* A group is identified by the coordinates on the non-free axes. *)
  let fixed_shape =
    Array.of_list
      (List.filteri (fun a _ -> not free_axes.(a)) (Array.to_list shape))
  in
  let fixed_key coords =
    let buf = ref [] in
    Array.iteri (fun a c -> if not free_axes.(a) then buf := c :: !buf) coords;
    Mixed_radix.encode ~shape:fixed_shape (Array.of_list (List.rev !buf))
  in
  let num_groups = Mixed_radix.size fixed_shape in
  let members = Array.make num_groups [] in
  let group_of = Array.make num_gpus 0 in
  for v = num_gpus - 1 downto 0 do
    let g = fixed_key (Mixed_radix.decode ~shape v) in
    members.(g) <- v :: members.(g);
    group_of.(v) <- g
  done;
  let groups = Array.map Array.of_list members in
  { dim_name; free_axes; link; port_group; groups; group_of }

let make ~name ~shape ~dims =
  if Array.length shape = 0 then invalid_arg "Topology.make: empty shape";
  Array.iter (fun s -> if s <= 0 then invalid_arg "Topology.make: axis size <= 0") shape;
  let num_gpus = Mixed_radix.size shape in
  let dims = Array.of_list (List.map (build_dim ~shape ~num_gpus) dims) in
  { name; shape; num_gpus; dims; faults = Fault.empty }

let num_gpus t = t.num_gpus
let num_dims t = Array.length t.dims
let dim t d = t.dims.(d)
let coords t v = Mixed_radix.decode ~shape:t.shape v
let gpu_of_coords t c = Mixed_radix.encode ~shape:t.shape c
let group_of t ~dim v = t.dims.(dim).group_of.(v)
let gpus_in_group t ~dim ~group = t.dims.(dim).groups.(group)
let groups_count t ~dim = Array.length t.dims.(dim).groups

let peers t ~dim v =
  let g = group_of t ~dim v in
  let members = gpus_in_group t ~dim ~group:g in
  Array.of_list (List.filter (fun u -> u <> v) (Array.to_list members))

let apply_axis_perms t perms =
  if Array.length perms <> Array.length t.shape then
    invalid_arg "Topology.apply_axis_perms: wrong number of axes";
  Array.iteri
    (fun a p ->
      if Array.length p <> t.shape.(a) then
        invalid_arg "Topology.apply_axis_perms: permutation/axis size mismatch")
    perms;
  Array.init t.num_gpus (fun v ->
      let c = coords t v in
      let c' = Array.mapi (fun a x -> perms.(a).(x)) c in
      gpu_of_coords t c')

let automorphism_to t ~src ~dst =
  let cs = coords t src and cd = coords t dst in
  let perms =
    Array.mapi (fun a _ -> Perm.rotation t.shape.(a) (cd.(a) - cs.(a))) cs
  in
  apply_axis_perms t perms

let is_automorphism t p =
  Perm.is_valid p
  && Array.length p = t.num_gpus
  && Array.for_all
       (fun d ->
         (* Every group must map onto some group of the same dimension. *)
         Array.for_all
           (fun members ->
             let images = Array.map (fun v -> p.(v)) members in
             let g = d.group_of.(images.(0)) in
             Array.for_all (fun v -> d.group_of.(v) = g) images)
           d.groups)
       t.dims

let with_link t ~dim link =
  if dim < 0 || dim >= Array.length t.dims then
    invalid_arg "Topology.with_link: dimension out of range";
  {
    t with
    name = t.name ^ "-degraded";
    dims = Array.mapi (fun i d -> if i = dim then { d with link } else d) t.dims;
  }

(* --- punctured topologies (fault sets) ----------------------------------- *)

let faults t = t.faults

(* The name of the healthy topology a (possibly punctured) one came from:
   puncturing appends "!" plus the canonical fault encoding.  A name is a
   label, not an identity — builders reuse one across shapes and links — so
   caches key on {!fingerprint}, never on [name]. *)
let base_name t =
  match String.index_opt t.name '!' with
  | None -> t.name
  | Some i -> String.sub t.name 0 i

let check_fault_elt t = function
  | Fault.Gpu g ->
      if g < 0 || g >= t.num_gpus then
        invalid_arg "Topology.puncture: gpu out of range"
  | Fault.Link { dim; a; b } ->
      if dim < 0 || dim >= Array.length t.dims then
        invalid_arg "Topology.puncture: link dimension out of range";
      if a < 0 || b >= t.num_gpus then
        invalid_arg "Topology.puncture: link endpoint out of range";
      if t.dims.(dim).group_of.(a) <> t.dims.(dim).group_of.(b) then
        invalid_arg "Topology.puncture: link endpoints are not peers"
  | Fault.Nic { gpu; port_group } ->
      if gpu < 0 || gpu >= t.num_gpus then
        invalid_arg "Topology.puncture: nic gpu out of range";
      if not (Array.exists (fun d -> d.port_group = port_group) t.dims) then
        invalid_arg "Topology.puncture: nic port group unused by any dimension"

let with_faults t faults =
  let name =
    if Fault.is_empty faults then base_name t
    else base_name t ^ "!" ^ Fault.encode faults
  in
  { t with name; faults }

let puncture t f =
  List.iter (check_fault_elt t) (Fault.elements f);
  with_faults t (Fault.union t.faults f)

let base t = with_faults t Fault.empty

let gpu_alive t v =
  not (List.exists (function Fault.Gpu g -> g = v | _ -> false)
         (Fault.elements t.faults))

(* Whether the intra-group edge u—v of [dim] survives: both endpoints up,
   neither endpoint's NIC for the dimension's port group down, and the edge
   itself not down.  Fault sets are tiny, so a list scan per query is fine. *)
let edge_alive t ~dim u v =
  Fault.is_empty t.faults
  ||
  let pg = t.dims.(dim).port_group in
  let lo = min u v and hi = max u v in
  not
    (List.exists
       (function
         | Fault.Gpu g -> g = u || g = v
         | Fault.Link { dim = d; a; b } -> d = dim && a = lo && b = hi
         | Fault.Nic { gpu; port_group } ->
             port_group = pg && (gpu = u || gpu = v))
       (Fault.elements t.faults))

(* The rotation group: per-axis rotation products, one element per GPU
   (the canonical automorphism taking GPU 0 there).  Always a subgroup of
   the full automorphism group, cheap to enumerate, and exactly the family
   [automorphism_to] draws from — so schedules transported along its
   elements are covered by the automorphism-transport law. *)
let rotation_group t =
  List.init t.num_gpus (fun g -> automorphism_to t ~src:0 ~dst:g)

(* The subgroup of rotations fixing the fault set: the symmetry a punctured
   topology retains.  For a healthy topology this is the whole rotation
   group. *)
let stabilizer t =
  Perm.stabilizer
    ~image:(fun f p -> Fault.map p f)
    ~equal:Fault.equal (rotation_group t) t.faults

(* Canonical structural digest: everything the synthesizer's output depends
   on — axis sizes, and per dimension the free-axis subset, link class and
   port group — serialized deterministically and hashed.  The topology
   [name] and dimension names are deliberately excluded, so a renamed (or
   programmatically rebuilt) cluster with identical structure shares cached
   schedules.  Link parameters are rendered as hex floats: two topologies
   fingerprint equal iff their α/β are bit-equal, never merely close. *)
let fingerprint t =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "syccl-topology-v1;shape=";
  Array.iter (fun s -> Buffer.add_string buf (string_of_int s ^ ".")) t.shape;
  Array.iter
    (fun d ->
      Buffer.add_string buf ";dim:free=";
      Array.iter (fun f -> Buffer.add_char buf (if f then '1' else '0')) d.free_axes;
      Buffer.add_string buf
        (Printf.sprintf ",alpha=%h,beta=%h,port=%d" d.link.Link.alpha
           d.link.Link.beta d.port_group))
    t.dims;
  (* Punctured topologies get a distinct digest; healthy ones keep the
     exact pre-fault digest, so existing registries stay valid. *)
  if not (Fault.is_empty t.faults) then
    Buffer.add_string buf (";faults=" ^ Fault.encode t.faults);
  Digest.to_hex (Digest.string (Buffer.contents buf))

let bandwidth_share t =
  (* Per-GPU egress capacity per port group: count each physical port once,
     at the highest bandwidth class attached to it. *)
  let port_bw = Hashtbl.create 8 in
  Array.iter
    (fun d ->
      let bw = Link.bandwidth_gbps d.link in
      let cur = Option.value (Hashtbl.find_opt port_bw d.port_group) ~default:0.0 in
      Hashtbl.replace port_bw d.port_group (Float.max cur bw))
    t.dims;
  let total = Hashtbl.fold (fun _ bw acc -> acc +. bw) port_bw 0.0 in
  Array.map (fun d -> Link.bandwidth_gbps d.link /. total) t.dims

let pp fmt t =
  Format.fprintf fmt "@[<v>topology %s: %d GPUs, shape [%s]@," t.name t.num_gpus
    (String.concat "x" (Array.to_list (Array.map string_of_int t.shape)));
  Array.iteri
    (fun i d ->
      Format.fprintf fmt "  dim %d (%s, %a, port#%d): %d groups of %d@," i d.dim_name
        Link.pp d.link d.port_group (Array.length d.groups)
        (Array.length d.groups.(0)))
    t.dims;
  Format.fprintf fmt "@]"
