module Topology = Syccl_topology.Topology
module Fault = Syccl_topology.Fault

type config = {
  max_stages : int;
  prune_isomorphic : bool;
  prune_consistency : bool;
  relay_limit : int option;
  max_sketches : int;
  node_budget : int;
}

let default topo kind =
  {
    max_stages = Topology.num_dims topo + 1;
    prune_isomorphic = true;
    prune_consistency = true;
    relay_limit =
      (match kind with
      | `Scatter -> Some (max 1 (Topology.num_dims topo - 1))
      | `Broadcast -> None);
    max_sketches = 1024;
    node_budget = 200_000;
  }

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

(* The search state is the partial tree (stage, parent, dim and hop depth
   per GPU), the covered GPUs in cover order on a stack (undo pops it), and
   a covered-member count per (dimension, group), updated on cover and
   undo.  Eligibility, fan-out bounds and destination remoteness read the
   counts instead of rescanning groups. *)
let run ?config ?(budget = Syccl_util.Budget.unlimited) ?truncated topo ~kind
    ~root =
  Syccl_util.Trace.with_span ~cat:"search" "search.run"
    ~args:
      [
        ("topo", topo.Topology.name);
        ("kind", (match kind with `Broadcast -> "broadcast" | `Scatter -> "scatter"));
        ("root", string_of_int root);
      ]
  @@ fun () ->
  let n = Topology.num_gpus topo in
  let nd = Topology.num_dims topo in
  let cfg = match config with Some c -> c | None -> default topo kind in
  let healthy = Fault.is_empty (Topology.faults topo) in
  (* Group members in ascending order, so sources and candidates are
     collected sorted, as the enumeration order requires. *)
  let members =
    Array.init nd (fun d ->
        Array.init (Topology.groups_count topo ~dim:d) (fun g ->
            Topology.gpus_in_group topo ~dim:d ~group:g))
  in
  let cov = Array.map (fun groups -> Array.make (Array.length groups) 0) members in
  let largest =
    Array.fold_left (Array.fold_left (fun m a -> max m (Array.length a))) 1 members
  in
  let fanouts = Array.init (largest + 1) (fun m -> fanout_options (max 1 m)) in
  let relay_cap =
    match (kind, cfg.relay_limit) with `Scatter, Some x -> x | _ -> max_int
  in
  let fp = Sketch.fingerprints topo in
  let results = ref [] and count = ref 0 in
  let seen = Hashtbl.create 64 in
  let exact_seen = Hashtbl.create 64 in
  let nodes = ref 0 in
  let stage_of = Array.make n (-1) in
  let parent = Array.make n (-1) in
  let dim_of = Array.make n (-1) in
  let depth = Array.make n 0 in
  let covered = Array.make n false in
  let stack = Array.make n 0 and sp = ref 0 in
  let count_cover v delta =
    for d = 0 to nd - 1 do
      let g = Topology.group_of topo ~dim:d v in
      cov.(d).(g) <- cov.(d).(g) + delta
    done
  in
  covered.(root) <- true;
  count_cover root 1;
  let cover v ~k ~p ~d =
    covered.(v) <- true;
    stage_of.(v) <- k;
    parent.(v) <- p;
    dim_of.(v) <- d;
    depth.(v) <- depth.(p) + 1;
    count_cover v 1;
    stack.(!sp) <- v;
    incr sp
  in
  let undo_to mark =
    while !sp > mark do
      decr sp;
      let v = stack.(!sp) in
      covered.(v) <- false;
      stage_of.(v) <- -1;
      parent.(v) <- -1;
      dim_of.(v) <- -1;
      count_cover v (-1)
    done
  in
  let emit k =
    (* Identical sketches can be re-discovered across deepening iterations;
       drop exact duplicates regardless of the isomorphism-pruning flag. *)
    let exact =
      let h = ref 17 in
      List.iter
        (fun a ->
          for v = 0 to n - 1 do
            h := Hashtbl.hash (!h, a.(v))
          done)
        [ stage_of; parent; dim_of ];
      !h
    in
    let keep =
      if Hashtbl.mem exact_seen exact then false
      else begin
        Hashtbl.replace exact_seen exact ();
        if cfg.prune_isomorphic then begin
          let sg =
            Sketch.signature_of fp ~kind ~num_stages:k ~root ~stage_of ~parent
              ~dim_of
          in
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
      results :=
        Sketch.make ~root ~kind ~num_stages:k ~stage_of:(Array.copy stage_of)
          ~parent:(Array.copy parent) ~dim_of:(Array.copy dim_of)
        :: !results;
      incr count;
      if !count >= cfg.max_sketches then raise Done
    end
  in
  (* Isomorphism-invariant fingerprint of the current partial tree: distinct
     exploration paths reaching equivalent partial states are explored only
     once (pruning #1 applied during the search, not just on emission). *)
  let partial_signature k =
    Hashtbl.hash (k, Sketch.label_multiset fp ~root ~stage_of ~parent ~dim_of)
  in
  let visited = Hashtbl.create 1024 in
  let srcs = Array.make n 0 and cands = Array.make n 0 in
  (* Destination remoteness: how many other dimensions already reach [v]'s
     group there.  Network stages prefer the GPUs no covered GPU can reach
     through another dimension, so they land in fresh groups instead of
     re-covering local neighbourhoods. *)
  let remoteness d v =
    let acc = ref 0 in
    for d' = 0 to nd - 1 do
      if d' <> d && cov.(d').(Topology.group_of topo ~dim:d' v) > 0 then
        incr acc
    done;
    !acc
  in
  (* Per stage: the chosen dimensions and their fan-outs, and the eligible
     dimensions with their fan-out bounds (deeper stages must not clobber
     a shallower stage's choice while it is being enumerated). *)
  let per_stage () = Array.make_matrix (cfg.max_stages + 1) nd 0 in
  let ch_dim = per_stage () and ch_r = per_stage () in
  let eligible = per_stage () and max_unc = per_stage () in
  (* One stage application: cover [r] destinations per eligible group of
     each chosen dimension.  Returns whether the stage stands; a rejected
     stage is undone at the first group whose (|srcs|, |dsts|) profile
     differs from its dimension's first (pruning #2) or the first
     destination past the relay limit (pruning #3, also without the
     consistency flag).  Rejecting there is exact: applying the rest could
     not make the stage stand, and undo restores everything it wrote but
     [depth], which is rewritten whenever a GPU is covered. *)
  let apply_stage k nchoice =
    let mark = !sp in
    let ok = ref true in
    let ci = ref 0 in
    while !ok && !ci < nchoice do
      let d = ch_dim.(k).(!ci) and r = ch_r.(k).(!ci) in
      let profile_srcs = ref (-1) and profile_take = ref (-1) in
      let groups = members.(d) in
      let g = ref 0 in
      while !ok && !g < Array.length groups do
        let ms = groups.(!g) in
        let c = cov.(d).(!g) in
        (* No covered member means no source; all covered, no candidate. *)
        if c > 0 && c < Array.length ms then begin
          (* Uncovered here also excludes GPUs grabbed earlier in this
             stage by another dimension. *)
          let nsrc = ref 0 and ncand = ref 0 in
          Array.iter
            (fun v ->
              if not covered.(v) then begin
                cands.(!ncand) <- v;
                incr ncand
              end
              else if stage_of.(v) < k then begin
                srcs.(!nsrc) <- v;
                incr nsrc
              end)
            ms;
          let nsrc = !nsrc in
          let ncand =
            if healthy || nsrc = 0 then !ncand
            else begin
              let prefix a len = Array.to_list (Array.sub a 0 len) in
              let alive =
                alive_cands topo ~dim:d ms (prefix srcs nsrc) (prefix cands !ncand)
              in
              List.iteri (fun i v -> cands.(i) <- v) alive;
              List.length alive
            end
          in
          if nsrc > 0 && ncand > 0 then begin
            let take = min r ncand in
            if !profile_srcs < 0 then begin
              profile_srcs := nsrc;
              profile_take := take
            end
            else if
              cfg.prune_consistency
              && (nsrc <> !profile_srcs || take <> !profile_take)
            then ok := false;
            (* Pick destinations one at a time, each covered at once, so a
               pick counts against the remoteness of the next (two
               cross-pod picks land in two different remote servers). *)
            let i = ref 0 in
            while !ok && !i < take do
              let best = ref (-1) and best_rem = ref max_int in
              for j = 0 to ncand - 1 do
                let v = cands.(j) in
                if not covered.(v) then begin
                  let rem = remoteness d v in
                  if rem < !best_rem then begin
                    best := v;
                    best_rem := rem
                  end
                end
              done;
              cover !best ~k ~p:srcs.(!i mod nsrc) ~d;
              if depth.(!best) > relay_cap then ok := false;
              incr i
            done
          end
        end;
        incr g
      done;
      incr ci
    done;
    if !ok && !sp > mark then true
    else begin
      undo_to mark;
      false
    end
  in
  let stage_limit = ref cfg.max_stages in
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
    else if !sp + 1 = n then emit k
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
      (* Eligible dimensions: some group has both covered and uncovered
         members; each one's fan-out bound is its largest uncovered count
         over groups with a covered member. *)
      let eligible = eligible.(k) and max_unc = max_unc.(k) in
      let ne = ref 0 in
      for d = 0 to nd - 1 do
        let progress = ref false and m = ref 0 in
        Array.iteri
          (fun g ms ->
            let c = cov.(d).(g) and size = Array.length ms in
            if c > 0 then begin
              if c < size then progress := true;
              if size - c > !m then m := size - c
            end)
          members.(d);
        if !progress then begin
          eligible.(!ne) <- d;
          max_unc.(!ne) <- !m;
          incr ne
        end
      done;
      let ne = !ne in
      (* All non-empty dimension subsets; the Cartesian product of fan-out
         options per chosen dimension. *)
      for mask = 1 to (1 lsl ne) - 1 do
        let rec product i c =
          if i = ne then begin
            let mark = !sp in
            if apply_stage k c then begin
              explore (k + 1);
              undo_to mark
            end
          end
          else if mask land (1 lsl i) = 0 then product (i + 1) c
          else
            List.iter
              (fun r ->
                ch_dim.(k).(c) <- eligible.(i);
                ch_r.(k).(c) <- r;
                product (i + 1) (c + 1))
              fanouts.(max_unc.(i))
        in
        product 0 0
      done
    end
  in
  (* Iterative deepening on the stage count: shallow sketches (the
     structured, few-stage decompositions) are emitted before the cap can
     fill with deep chains; the signature table deduplicates re-discoveries
     across iterations. *)
  (try
     for limit = 1 to cfg.max_stages do
       stage_limit := limit;
       Hashtbl.reset visited;
       explore 0
     done
   with Done -> ());
  List.rev !results

let instantiate topo ~kind ~root ~shape ~load =
  let n = Topology.num_gpus topo in
  let stage_of = Array.make n (-1) in
  let parent = Array.make n (-1) in
  let dim_of = Array.make n (-1) in
  let covered = Array.make n false in
  covered.(root) <- true;
  let num_covered = ref 1 in
  let virtual_load = Array.map Array.copy load in
  let num_stages = Array.length shape in
  for k = 0 to num_stages - 1 do
    let next_dims =
      if k + 1 < num_stages then List.map fst shape.(k + 1) else []
    in
    List.iter
      (fun (d, r) ->
        for g = 0 to Topology.groups_count topo ~dim:d - 1 do
          let members = Topology.gpus_in_group topo ~dim:d ~group:g in
          let srcs =
            List.filter (fun v -> covered.(v) && stage_of.(v) < k) (Array.to_list members)
          in
          let cands =
            alive_cands topo ~dim:d members srcs
              (List.filter (fun v -> not covered.(v)) (Array.to_list members))
          in
          if srcs <> [] && cands <> [] then begin
            let parent_rr = Array.of_list (List.sort compare srcs) in
            let take = min r (List.length cands) in
            (* Pick destinations one at a time, each from the least-loaded
               next-stage group (§4.2 replication mapping). *)
            let remaining = ref (List.sort compare cands) in
            for i = 0 to take - 1 do
              let score v =
                match next_dims with
                | [] -> 0.0
                | nd0 :: _ ->
                    virtual_load.(nd0).(Topology.group_of topo ~dim:nd0 v)
              in
              let best =
                List.fold_left
                  (fun acc v ->
                    match acc with
                    | None -> Some v
                    | Some b -> if score v < score b -. 1e-12 then Some v else acc)
                  None !remaining
              in
              match best with
              | None -> ()
              | Some v ->
                  remaining := List.filter (fun u -> u <> v) !remaining;
                  covered.(v) <- true;
                  stage_of.(v) <- k;
                  parent.(v) <- parent_rr.(i mod Array.length parent_rr);
                  dim_of.(v) <- d;
                  incr num_covered;
                  (match next_dims with
                  | [] -> ()
                  | nd0 :: _ ->
                      let g' = Topology.group_of topo ~dim:nd0 v in
                      virtual_load.(nd0).(g') <- virtual_load.(nd0).(g') +. 1.0)
            done
          end
        done)
      shape.(k)
  done;
  if !num_covered = n then
    Some (Sketch.make ~root ~kind ~num_stages ~stage_of ~parent ~dim_of)
  else None
