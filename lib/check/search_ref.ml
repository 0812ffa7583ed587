(* The retired sketch search, kept verbatim as the differential oracle for
   {!Syccl.Search.run}, minus the trace span.  Every stage is applied in
   full before the consistency and relay checks reject it, eligibility and
   fan-out bounds rescan every group, destination selection rebuilds a
   per-(dim, group) "touched" table per call, and the partial-state and
   emission fingerprints are built from sorted lists.  Its own copies of
   the structural labels, the chain hash and the sketch signature pin the
   fingerprint values, which the search's dedup tables key on: a
   production search that hashes differently prunes different states. *)

module Topology = Syccl_topology.Topology
module Fault = Syccl_topology.Fault
module Sketch = Syccl.Sketch
module Search = Syccl.Search

(* Isomorphism-invariant per-GPU labels of a (possibly partial) coverage
   tree.  Base labels follow the parent chain; two Weisfeiler-Leman rounds
   then fold in each covered GPU's relation to other covered GPUs through
   every dimension's groups, distinguishing e.g. "covered a same-server GPU
   over the network" from "covered a remote GPU over the network". *)
let structural_labels topo ~root ~stage_of ~parent ~dim_of =
  let n = Array.length stage_of in
  let covered v = v = root || stage_of.(v) >= 0 in
  let label = Array.make n 0 in
  let order = Array.init n (fun i -> i) in
  Array.sort (fun a b -> compare stage_of.(a) stage_of.(b)) order;
  Array.iter
    (fun v ->
      if v = root then label.(v) <- Hashtbl.hash `Root
      else if covered v then
        label.(v) <- Hashtbl.hash (stage_of.(v), dim_of.(v), label.(parent.(v))))
    order;
  let nd = Topology.num_dims topo in
  let hash_all l = List.fold_left (fun a (i : int) -> Hashtbl.hash (a, i)) 17 l in
  for _round = 1 to 2 do
    (* Per (dim, group): chained hash of the sorted labels of its covered
       members ([Hashtbl.hash] alone truncates long structures). *)
    let group_sigs =
      Array.init nd (fun d ->
          Array.init (Topology.groups_count topo ~dim:d) (fun g ->
              let members = Topology.gpus_in_group topo ~dim:d ~group:g in
              hash_all
                (List.sort compare
                   (List.filter_map
                      (fun v -> if covered v then Some label.(v) else None)
                      (Array.to_list members)))))
    in
    let next = Array.make n 0 in
    for v = 0 to n - 1 do
      if covered v then begin
        let ctx =
          List.init nd (fun d ->
              group_sigs.(d).(Topology.group_of topo ~dim:d v))
        in
        next.(v) <- hash_all (label.(v) :: ctx)
      end
    done;
    Array.blit next 0 label 0 n
  done;
  label

(* OCaml's [Hashtbl.hash] only visits a bounded prefix of a structure, which
   would conflate most label lists; chain-hash every element instead. *)
let hash_ints l = List.fold_left (fun a (i : int) -> Hashtbl.hash (a, i)) 17 l

let signature topo t =
  let label =
    structural_labels topo ~root:t.Sketch.root ~stage_of:t.Sketch.stage_of ~parent:t.Sketch.parent
      ~dim_of:t.Sketch.dim_of
  in
  let descriptors =
    List.map
      (fun sd ->
        ( sd.Sketch.sd_stage,
          sd.Sketch.sd_dim,
          hash_ints (List.sort compare (List.map (fun v -> label.(v)) sd.Sketch.srcs)),
          hash_ints
            (List.sort compare (List.map (fun v -> label.(t.Sketch.parent.(v))) sd.Sketch.dsts)),
          List.length sd.Sketch.dsts ))
      (Sketch.subdemands topo t)
  in
  List.fold_left
    (fun a d -> Hashtbl.hash (a, d))
    (Hashtbl.hash (t.Sketch.kind, t.Sketch.num_stages))
    (List.sort compare descriptors)

(* On a punctured topology only candidates reachable from the covered
   sources over surviving intra-group edges can be served by the
   sub-solver; unreachable members must be covered through another
   dimension (or the demand honestly fails).  Identity when healthy. *)
let alive_cands topo ~dim members srcs cands =
  if Fault.is_empty (Topology.faults topo) || srcs = [] then cands
  else begin
    let reach = Hashtbl.create 8 in
    List.iter (fun v -> Hashtbl.replace reach v ()) srcs;
    let changed = ref true in
    while !changed do
      changed := false;
      Array.iter
        (fun v ->
          if
            (not (Hashtbl.mem reach v))
            && Array.exists
                 (fun u ->
                   u <> v && Hashtbl.mem reach u
                   && Topology.edge_alive topo ~dim u v)
                 members
          then begin
            Hashtbl.replace reach v ();
            changed := true
          end)
        members
    done;
    List.filter (Hashtbl.mem reach) cands
  end

(* Destination fan-outs worth exploring for a group with up to [m] uncovered
   GPUs: "cover everything" first (the shapes that finish in few stages),
   then halving powers of two.  Large-first ordering matters: the emission
   cap and node budget then favour complete, useful shapes. *)
let fanout_options m =
  let rec powers p acc = if p >= m then acc else powers (2 * p) (p :: acc) in
  List.sort_uniq compare (powers 1 [] @ [ m ]) |> List.rev

exception Done

let run ?config ?(budget = Syccl_util.Budget.unlimited) ?truncated topo ~kind
    ~root =
  let n = Topology.num_gpus topo in
  let nd = Topology.num_dims topo in
  let cfg : Search.config =
    match config with Some c -> c | None -> Search.default topo kind
  in
  let results = ref [] and count = ref 0 in
  let seen = Hashtbl.create 64 in
  let exact_seen = Hashtbl.create 64 in
  let nodes = ref 0 in
  let emit stage_of parent dim_of k =
    let sketch =
      Sketch.make ~root ~kind ~num_stages:k ~stage_of:(Array.copy stage_of)
        ~parent:(Array.copy parent) ~dim_of:(Array.copy dim_of)
    in
    (* Identical sketches can be re-discovered across deepening iterations;
       drop exact duplicates regardless of the isomorphism-pruning flag. *)
    let exact =
      hash_ints
        (Array.to_list stage_of @ Array.to_list parent @ Array.to_list dim_of)
    in
    let keep =
      if Hashtbl.mem exact_seen exact then false
      else begin
        Hashtbl.replace exact_seen exact ();
        if cfg.prune_isomorphic then begin
          let sg = signature topo sketch in
          if Hashtbl.mem seen sg then false
          else begin
            Hashtbl.replace seen sg ();
            true
          end
        end
        else true
      end
    in
    if keep then begin
      results := sketch :: !results;
      incr count;
      if !count >= cfg.max_sketches then raise Done
    end
  in
  let stage_of = Array.make n (-1) in
  let parent = Array.make n (-1) in
  let dim_of = Array.make n (-1) in
  let depth = Array.make n 0 in
  let covered = Array.make n false in
  covered.(root) <- true;
  let num_covered = ref 1 in
  (* Isomorphism-invariant fingerprint of the current partial tree: distinct
     exploration paths reaching equivalent partial states are explored only
     once (pruning #1 applied during the search, not just on emission). *)
  let partial_signature k =
    let label = structural_labels topo ~root ~stage_of ~parent ~dim_of in
    Hashtbl.hash (k, hash_ints (List.sort compare (Array.to_list label)))
  in
  let visited = Hashtbl.create 1024 in
  (* One stage application: cover [r] destinations per eligible group of each
     chosen dimension.  Returns the applied coverings for undo, or [None]
     when pruned. *)
  let apply_stage k choice =
    let applied = ref [] in
    let undo () =
      List.iter
        (fun v ->
          covered.(v) <- false;
          stage_of.(v) <- -1;
          parent.(v) <- -1;
          dim_of.(v) <- -1;
          decr num_covered)
        !applied
    in
    let consistent = ref true in
    (* Canonical destination choice: prefer GPUs no covered GPU can already
       reach through another dimension ("remote" ones), so network stages
       reach fresh groups instead of re-covering local neighbourhoods. *)
    (* Select destinations one at a time so each pick counts against the
       remoteness of the next (e.g. two cross-pod picks land in two different
       remote servers, not the same one).  A per-(dim, group) "touched" table
       keeps each remoteness lookup O(#dims). *)
    let select d take cands =
      let touched =
        Array.init (Topology.num_dims topo) (fun d' ->
            Array.make (Topology.groups_count topo ~dim:d') false)
      in
      Array.iteri
        (fun d' row ->
          Array.iteri
            (fun g _ ->
              row.(g) <-
                Array.exists (fun u -> covered.(u))
                  (Topology.gpus_in_group topo ~dim:d' ~group:g))
            row)
        touched;
      let remoteness v =
        let acc = ref 0 in
        for d' = 0 to Topology.num_dims topo - 1 do
          if d' <> d && touched.(d').(Topology.group_of topo ~dim:d' v) then
            incr acc
        done;
        !acc
      in
      let picked = ref [] and pool = ref cands in
      for _ = 1 to take do
        let best =
          List.fold_left
            (fun acc v ->
              let key = (remoteness v, v) in
              match acc with
              | Some (bk, _) when bk <= key -> acc
              | _ -> Some (key, v))
            None !pool
        in
        match best with
        | None -> ()
        | Some (_, v) ->
            picked := v :: !picked;
            pool := List.filter (fun u -> u <> v) !pool;
            for d' = 0 to Topology.num_dims topo - 1 do
              touched.(d').(Topology.group_of topo ~dim:d' v) <- true
            done
      done;
      List.rev !picked
    in
    List.iter
      (fun (d, r) ->
        let profile = ref None in
        for g = 0 to Topology.groups_count topo ~dim:d - 1 do
          let members = Topology.gpus_in_group topo ~dim:d ~group:g in
          let srcs = List.filter (fun v -> covered.(v) && stage_of.(v) < k) (Array.to_list members) in
          (* Uncovered here also excludes GPUs grabbed earlier in this stage
             by another dimension. *)
          let cands =
            alive_cands topo ~dim:d members srcs
              (List.filter (fun v -> not covered.(v)) (Array.to_list members))
          in
          if srcs <> [] && cands <> [] then begin
            let parent_rr = Array.of_list (List.sort compare srcs) in
            let take = min r (List.length cands) in
            let chosen = select d take (List.sort compare cands) in
            (match !profile with
            | None -> profile := Some (List.length srcs, take)
            | Some p -> if p <> (List.length srcs, take) then consistent := false);
            List.iteri
              (fun i v ->
                let p = parent_rr.(i mod Array.length parent_rr) in
                covered.(v) <- true;
                stage_of.(v) <- k;
                parent.(v) <- p;
                dim_of.(v) <- d;
                depth.(v) <- depth.(p) + 1;
                incr num_covered;
                applied := v :: !applied)
              chosen
          end
        done)
      choice;
    if !applied = [] || (cfg.prune_consistency && not !consistent) then begin
      undo ();
      None
    end
    else if
      (* Pruning #3 applies even without the consistency flag. *)
      kind = `Scatter
      && (match cfg.relay_limit with
         | Some x -> List.exists (fun v -> depth.(v) > x) !applied
         | None -> false)
    then begin
      undo ();
      None
    end
    else Some undo
  in
  let stage_limit = ref cfg.Search.max_stages in
  (* Deadline check amortized over enumeration nodes: expiry aborts the
     whole deepening loop (not just the current subtree) and marks the
     result truncated so callers know the sketch set is scheduling-
     dependent and must not be cached. *)
  let check_budget () =
    if !nodes land 31 = 0 && Syccl_util.Budget.expired budget then begin
      (match truncated with Some r -> r := true | None -> ());
      Syccl_util.Budget.mark_degraded budget;
      raise Done
    end
  in
  let rec explore k =
    incr nodes;
    check_budget ();
    if !nodes > cfg.node_budget then ()
    else if !num_covered = n then emit stage_of parent dim_of k
    else if
      cfg.prune_isomorphic
      &&
      let sg = partial_signature k in
      if Hashtbl.mem visited sg then true
      else begin
        Hashtbl.replace visited sg ();
        false
      end
    then ()
    else if k < !stage_limit then begin
      (* Eligible dimensions: some group has both covered and uncovered. *)
      let eligible =
        List.filter
          (fun d ->
            let progress = ref false in
            for g = 0 to Topology.groups_count topo ~dim:d - 1 do
              let members = Topology.gpus_in_group topo ~dim:d ~group:g in
              let has_cov = Array.exists (fun v -> covered.(v)) members in
              let has_unc = Array.exists (fun v -> not covered.(v)) members in
              if has_cov && has_unc then progress := true
            done;
            !progress)
          (List.init nd (fun d -> d))
      in
      let eligible = Array.of_list eligible in
      let ne = Array.length eligible in
      (* All non-empty dimension subsets. *)
      for mask = 1 to (1 lsl ne) - 1 do
        let dims =
          List.filter_map
            (fun i -> if mask land (1 lsl i) <> 0 then Some eligible.(i) else None)
            (List.init ne (fun i -> i))
        in
        (* Cartesian product of fan-out options per chosen dimension. *)
        let max_unc d =
          let m = ref 0 in
          for g = 0 to Topology.groups_count topo ~dim:d - 1 do
            let members = Topology.gpus_in_group topo ~dim:d ~group:g in
            let has_cov = Array.exists (fun v -> covered.(v)) members in
            if has_cov then begin
              let u = Array.fold_left (fun a v -> if covered.(v) then a else a + 1) 0 members in
              if u > !m then m := u
            end
          done;
          !m
        in
        let rec product acc = function
          | [] ->
              let choice = List.rev acc in
              (match apply_stage k choice with
              | None -> ()
              | Some undo ->
                  explore (k + 1);
                  undo ())
          | d :: rest ->
              List.iter
                (fun r -> product ((d, r) :: acc) rest)
                (fanout_options (max 1 (max_unc d)))
        in
        product [] dims
      done
    end
  in
  (* Iterative deepening on the stage count: shallow sketches (the
     structured, few-stage decompositions) are emitted before the cap can
     fill with deep chains; the signature table deduplicates re-discoveries
     across iterations. *)
  (try
     for limit = 1 to cfg.Search.max_stages do
       stage_limit := limit;
       Hashtbl.reset visited;
       explore 0
     done
   with Done -> ());
  List.rev !results
