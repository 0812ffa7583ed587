module Topology = Syccl_topology.Topology
module Perm = Syccl_util.Perm

type kind = [ `Broadcast | `Scatter ]

type t = {
  root : int;
  kind : kind;
  num_stages : int;
  stage_of : int array;
  parent : int array;
  dim_of : int array;
}

let make ~root ~kind ~num_stages ~stage_of ~parent ~dim_of =
  let n = Array.length stage_of in
  if Array.length parent <> n || Array.length dim_of <> n then
    invalid_arg "Sketch.make: array length mismatch";
  if root < 0 || root >= n then invalid_arg "Sketch.make: root out of range";
  if stage_of.(root) <> -1 || parent.(root) <> -1 || dim_of.(root) <> -1 then
    invalid_arg "Sketch.make: root must have stage/parent/dim = -1";
  Array.iteri
    (fun v s ->
      if v <> root then begin
        if s < 0 || s >= num_stages then invalid_arg "Sketch.make: stage out of range";
        let p = parent.(v) in
        if p < 0 || p >= n || p = v then invalid_arg "Sketch.make: bad parent";
        if stage_of.(p) >= s then invalid_arg "Sketch.make: parent covered too late"
      end)
    stage_of;
  { root; kind; num_stages; stage_of; parent; dim_of }

let check topo t =
  let bad = ref None in
  Array.iteri
    (fun v p ->
      if v <> t.root && !bad = None then begin
        let d = t.dim_of.(v) in
        if d < 0 || d >= Topology.num_dims topo then bad := Some (v, d)
        else if
          Topology.group_of topo ~dim:d v <> Topology.group_of topo ~dim:d p
        then bad := Some (v, d)
      end)
    t.parent;
  match !bad with
  | None -> Ok ()
  | Some (v, d) ->
      Error (Printf.sprintf "GPU %d is not a dim-%d peer of its parent" v d)

type subdemand = {
  sd_stage : int;
  sd_dim : int;
  sd_group : int;
  srcs : int list;
  dsts : int list;
}

let subdemands topo t =
  let n = Array.length t.stage_of in
  let tbl = Hashtbl.create 16 in
  for v = 0 to n - 1 do
    if v <> t.root then begin
      let k = t.stage_of.(v) and d = t.dim_of.(v) in
      let g = Topology.group_of topo ~dim:d v in
      Hashtbl.replace tbl (k, d, g)
        (v :: Option.value (Hashtbl.find_opt tbl (k, d, g)) ~default:[])
    end
  done;
  let covered_before k v = t.stage_of.(v) < k in
  Hashtbl.fold
    (fun (k, d, g) dsts acc ->
      let members = Topology.gpus_in_group topo ~dim:d ~group:g in
      let srcs =
        List.filter (covered_before k) (Array.to_list members)
      in
      { sd_stage = k; sd_dim = d; sd_group = g; srcs; dsts = List.sort compare dsts }
      :: acc)
    tbl []
  |> List.sort (fun a b ->
         compare (a.sd_stage, a.sd_dim, a.sd_group) (b.sd_stage, b.sd_dim, b.sd_group))

let descendants t =
  let n = Array.length t.parent in
  let d = Array.make n 0 in
  (* Order GPUs by stage descending so children are counted before parents. *)
  let order = Array.init n (fun i -> i) in
  Array.sort (fun a b -> compare t.stage_of.(b) t.stage_of.(a)) order;
  Array.iter
    (fun v -> if v <> t.root then d.(t.parent.(v)) <- d.(t.parent.(v)) + d.(v) + 1)
    order;
  d

let depth t =
  let n = Array.length t.parent in
  let d = Array.make n (-1) in
  let rec go v =
    if d.(v) >= 0 then d.(v)
    else begin
      let r = if v = t.root then 0 else 1 + go t.parent.(v) in
      d.(v) <- r;
      r
    end
  in
  for v = 0 to n - 1 do
    ignore (go v)
  done;
  d

let workload topo t =
  let desc = descendants t in
  let w =
    Array.init (Topology.num_dims topo) (fun d ->
        Array.make (Topology.groups_count topo ~dim:d) 0.0)
  in
  Array.iteri
    (fun v _ ->
      if v <> t.root then begin
        let d = t.dim_of.(v) in
        let g = Topology.group_of topo ~dim:d v in
        let units =
          match t.kind with
          | `Broadcast -> 1.0
          | `Scatter -> float_of_int (desc.(v) + 1)
        in
        w.(d).(g) <- w.(d).(g) +. units
      end)
    t.stage_of;
  w

let dim_workload topo t =
  Array.map (Array.fold_left ( +. ) 0.0) (workload topo t)

(* --- Structural fingerprints ------------------------------------------- *)

(* Reusable int buffers for one topology's structural labels and
   signatures.  Every hash is [Hashtbl.hash] of the same int tuples the
   list-built definitions hash, and every multiset is hashed in ascending
   order, so the values are those of the list-built labels and signature,
   bit for bit: the search's dedup tables key on them. *)
type fingerprints = {
  f_topo : Topology.t;
  f_label : int array;
  f_next : int array;
  f_done : bool array;
  f_gsig : int array array;  (* per-(dim, group) label-multiset hash *)
  f_sort : int array;  (* scratch for one multiset, ascending *)
  f_all : int array;  (* all n labels, sorted in place *)
  f_keyed : int array;  (* non-root GPUs keyed by (stage, dim, group) *)
  f_desc : int array;  (* five ints per sub-demand descriptor *)
}

let fingerprints topo =
  let n = Topology.num_gpus topo and nd = Topology.num_dims topo in
  {
    f_topo = topo;
    f_label = Array.make n 0;
    f_next = Array.make n 0;
    f_done = Array.make n false;
    f_gsig =
      Array.init nd (fun d -> Array.make (Topology.groups_count topo ~dim:d) 0);
    f_sort = Array.make n 0;
    f_all = Array.make n 0;
    f_keyed = Array.make (max 0 (n - 1)) 0;
    f_desc = Array.make (5 * n) 0;
  }

(* Chain hash of [a.(0..len-1)]: [Hashtbl.hash] alone only visits a bounded
   prefix of a structure, which would conflate most label lists. *)
let chain a len =
  let h = ref 17 in
  for i = 0 to len - 1 do
    h := Hashtbl.hash (!h, a.(i))
  done;
  !h

(* Ascending insertion sort of [a.(0..len-1)]: multisets here are one
   group's members or one sub-demand's GPUs, a handful of ints. *)
let sort_prefix a len =
  for i = 1 to len - 1 do
    let x = a.(i) in
    let j = ref (i - 1) in
    while !j >= 0 && a.(!j) > x do
      a.(!j + 1) <- a.(!j);
      decr j
    done;
    a.(!j + 1) <- x
  done

(* Isomorphism-invariant per-GPU labels of a (possibly partial) coverage
   tree, into [fp.f_label].  Base labels follow the parent chain; two
   Weisfeiler-Leman rounds then fold in each covered GPU's relation to other
   covered GPUs through every dimension's groups, distinguishing e.g.
   "covered a same-server GPU over the network" from "covered a remote GPU
   over the network".  Uncovered GPUs get label 0. *)
let labels_into fp ~root ~stage_of ~parent ~dim_of =
  let topo = fp.f_topo in
  let n = Topology.num_gpus topo and nd = Topology.num_dims topo in
  let label = fp.f_label and next = fp.f_next and fin = fp.f_done in
  let covered v = v = root || stage_of.(v) >= 0 in
  Array.fill fin 0 n false;
  let rec base v =
    if not fin.(v) then begin
      label.(v) <-
        (if v = root then Hashtbl.hash `Root
         else if covered v then begin
           let p = parent.(v) in
           base p;
           Hashtbl.hash (stage_of.(v), dim_of.(v), label.(p))
         end
         else 0);
      fin.(v) <- true
    end
  in
  for v = 0 to n - 1 do
    base v
  done;
  let buf = fp.f_sort in
  for _round = 1 to 2 do
    for d = 0 to nd - 1 do
      for g = 0 to Topology.groups_count topo ~dim:d - 1 do
        let len = ref 0 in
        Array.iter
          (fun v ->
            if covered v then begin
              buf.(!len) <- label.(v);
              incr len
            end)
          (Topology.gpus_in_group topo ~dim:d ~group:g);
        sort_prefix buf !len;
        fp.f_gsig.(d).(g) <- chain buf !len
      done
    done;
    for v = 0 to n - 1 do
      next.(v) <-
        (if covered v then begin
           let h = ref (Hashtbl.hash (17, label.(v))) in
           for d = 0 to nd - 1 do
             let g = Topology.group_of topo ~dim:d v in
             h := Hashtbl.hash (!h, fp.f_gsig.(d).(g))
           done;
           !h
         end
         else 0)
    done;
    Array.blit next 0 label 0 n
  done

let structural_labels topo ~root ~stage_of ~parent ~dim_of =
  let fp = fingerprints topo in
  labels_into fp ~root ~stage_of ~parent ~dim_of;
  fp.f_label

let label_multiset fp ~root ~stage_of ~parent ~dim_of =
  labels_into fp ~root ~stage_of ~parent ~dim_of;
  Array.blit fp.f_label 0 fp.f_all 0 (Array.length fp.f_all);
  Array.sort Int.compare fp.f_all;
  chain fp.f_all (Array.length fp.f_all)

(* One descriptor per sub-demand (stage k, dim d, group g): the sorted
   labels of the group's sources (members covered before k), the sorted
   labels of its destinations' parents, and its destination count; the
   signature folds the descriptors in ascending lexicographic order. *)
let signature_of fp ~kind ~num_stages ~root ~stage_of ~parent ~dim_of =
  let topo = fp.f_topo in
  let n = Topology.num_gpus topo and nd = Topology.num_dims topo in
  labels_into fp ~root ~stage_of ~parent ~dim_of;
  let label = fp.f_label and buf = fp.f_sort in
  let ngroups = Array.fold_left (fun m g -> max m (Array.length g)) 1 fp.f_gsig in
  let key v =
    let d = dim_of.(v) in
    (((stage_of.(v) * nd) + d) * ngroups) + Topology.group_of topo ~dim:d v
  in
  (* A complete tree: every GPU but the root is keyed. *)
  let keyed = fp.f_keyed in
  let m = ref 0 in
  for v = 0 to n - 1 do
    if v <> root then begin
      keyed.(!m) <- (key v * n) + v;
      incr m
    end
  done;
  Array.sort Int.compare keyed;
  let desc = fp.f_desc and nds = ref 0 in
  let i = ref 0 in
  while !i < !m do
    let v0 = keyed.(!i) mod n in
    let k = stage_of.(v0) and d = dim_of.(v0) in
    let kv = key v0 in
    let len = ref 0 in
    while !i < !m && key (keyed.(!i) mod n) = kv do
      buf.(!len) <- label.(parent.(keyed.(!i) mod n));
      incr len;
      incr i
    done;
    sort_prefix buf !len;
    let dst_hash = chain buf !len and dsts = !len in
    len := 0;
    Array.iter
      (fun u ->
        if stage_of.(u) < k then begin
          buf.(!len) <- label.(u);
          incr len
        end)
      (Topology.gpus_in_group topo ~dim:d
         ~group:(Topology.group_of topo ~dim:d v0));
    sort_prefix buf !len;
    let o = 5 * !nds in
    desc.(o) <- k;
    desc.(o + 1) <- d;
    desc.(o + 2) <- chain buf !len;
    desc.(o + 3) <- dst_hash;
    desc.(o + 4) <- dsts;
    incr nds
  done;
  let order = Array.init !nds Fun.id in
  let cmp a b =
    let rec go j =
      if j = 5 then 0
      else
        let c = Int.compare desc.((5 * a) + j) desc.((5 * b) + j) in
        if c <> 0 then c else go (j + 1)
    in
    go 0
  in
  Array.sort cmp order;
  Array.fold_left
    (fun a i ->
      let o = 5 * i in
      Hashtbl.hash
        (a, (desc.(o), desc.(o + 1), desc.(o + 2), desc.(o + 3), desc.(o + 4))))
    (Hashtbl.hash (kind, num_stages))
    order

let signature topo t =
  signature_of (fingerprints topo) ~kind:t.kind ~num_stages:t.num_stages
    ~root:t.root ~stage_of:t.stage_of ~parent:t.parent ~dim_of:t.dim_of

let map topo perm t =
  let n = Array.length t.stage_of in
  if Array.length perm <> n then invalid_arg "Sketch.map: permutation size";
  let inv = Perm.invert perm in
  let mapped =
    {
      root = perm.(t.root);
      kind = t.kind;
      num_stages = t.num_stages;
      stage_of = Array.init n (fun v -> t.stage_of.(inv.(v)));
      parent =
        Array.init n (fun v ->
            let p = t.parent.(inv.(v)) in
            if p < 0 then -1 else perm.(p));
      dim_of = Array.init n (fun v -> t.dim_of.(inv.(v)));
    }
  in
  (match check topo mapped with
  | Ok () -> ()
  | Error e -> invalid_arg ("Sketch.map: not an automorphism: " ^ e));
  mapped

type shape = (int * int) list array

let shape topo t =
  Array.init t.num_stages (fun k ->
      let sds = List.filter (fun sd -> sd.sd_stage = k) (subdemands topo t) in
      let dims = List.sort_uniq compare (List.map (fun sd -> sd.sd_dim) sds) in
      List.map
        (fun d ->
          let r =
            List.fold_left
              (fun acc sd ->
                if sd.sd_dim = d then max acc (List.length sd.dsts) else acc)
              0 sds
          in
          (d, r))
        dims)

let pp fmt t =
  Format.fprintf fmt "@[<v>sketch(%s, root=%d, %d stages)@,"
    (match t.kind with `Broadcast -> "bcast" | `Scatter -> "scatter")
    t.root t.num_stages;
  for k = 0 to t.num_stages - 1 do
    Format.fprintf fmt "  stage %d:" k;
    Array.iteri
      (fun v s ->
        if s = k then Format.fprintf fmt " %d->%d(d%d)" t.parent.(v) v t.dim_of.(v))
      t.stage_of;
    Format.fprintf fmt "@,"
  done;
  Format.fprintf fmt "@]"
