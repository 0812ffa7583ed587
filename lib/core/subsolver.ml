module Topology = Syccl_topology.Topology
module Fault = Syccl_topology.Fault
module Collective = Syccl_collective.Collective
module Schedule = Syccl_sim.Schedule
module Greedy = Syccl_teccl.Greedy
module Epoch_model = Syccl_teccl.Epoch_model
module Tau = Syccl_teccl.Tau

type strategy =
  | Fast_only
  | Milp_refine of {
      e : float;
      var_budget : int;
      node_limit : int;
      time_limit : float;
    }

type entry = { chunk : int; e_size : float; e_srcs : int list; e_dsts : int list }

type demand = { d_stage : int; d_dim : int; d_group : int; entries : entry list }

type plan = { chunks : Schedule.chunk_meta array; demands : demand list }

(* Which collective chunk a (root, dst) pair belongs to, per the numbering of
   Collective.chunks. *)
let tag_fn (coll : Collective.t) =
  let n = coll.Collective.n in
  match coll.Collective.kind with
  | Collective.Broadcast | Collective.Reduce | Collective.SendRecv -> fun _ _ -> 0
  | Collective.AllGather | Collective.ReduceScatter -> fun root _ -> root
  | Collective.AllToAll -> fun root dst -> (root * n) + dst
  | Collective.Scatter | Collective.Gather ->
      fun root dst -> if dst < root then dst else dst - 1
  | Collective.AllReduce -> invalid_arg "Subsolver: plan AllReduce per phase"

let others n v = List.filter (fun u -> u <> v) (List.init n (fun i -> i))

(* Children lists and descendant sets of a sketch tree. *)
let children (s : Sketch.t) =
  let n = Array.length s.Sketch.parent in
  let ch = Array.make n [] in
  Array.iteri (fun v p -> if v <> s.Sketch.root && p >= 0 then ch.(p) <- v :: ch.(p)) s.Sketch.parent;
  ch

let subtree (s : Sketch.t) =
  let ch = children s in
  let n = Array.length ch in
  let memo = Array.make n None in
  let rec go v =
    match memo.(v) with
    | Some l -> l
    | None ->
        let l = v :: List.concat_map go ch.(v) in
        memo.(v) <- Some l;
        l
  in
  Array.init n go

let plan topo coll (combo : Combine.combo) =
  let prim_size = Collective.chunk_size coll in
  let n = Topology.num_gpus topo in
  let tag = tag_fn coll in
  let chunks = ref [] and next_chunk = ref 0 in
  let fresh meta =
    let id = !next_chunk in
    incr next_chunk;
    chunks := meta :: !chunks;
    id
  in
  let demands = Hashtbl.create 64 in
  let push key entry =
    Hashtbl.replace demands key
      (entry :: Option.value (Hashtbl.find_opt demands key) ~default:[])
  in
  List.iter
    (fun ((s : Sketch.t), frac) ->
      let size = frac *. prim_size in
      let root = s.Sketch.root in
      match s.Sketch.kind with
      | `Broadcast ->
          let cid =
            fresh
              {
                Schedule.size;
                mode = `Gather;
                initial = [ root ];
                wanted = others n root;
                tag = tag root root;
              }
          in
          List.iter
            (fun (sd : Sketch.subdemand) ->
              push
                (sd.Sketch.sd_stage, sd.Sketch.sd_dim, sd.Sketch.sd_group)
                { chunk = cid; e_size = size; e_srcs = sd.Sketch.srcs; e_dsts = sd.Sketch.dsts })
            (Sketch.subdemands topo s)
      | `Scatter ->
          (* One chunk per non-root GPU; the chunk for GPU w transits every
             tree edge on the root→w path. *)
          let cid_of = Array.make n (-1) in
          for w = 0 to n - 1 do
            if w <> root then
              cid_of.(w) <-
                fresh
                  {
                    Schedule.size;
                    mode = `Gather;
                    initial = [ root ];
                    wanted = [ w ];
                    tag = tag root w;
                  }
          done;
          let sub = subtree s in
          Array.iteri
            (fun v p ->
              if v <> root && p >= 0 then begin
                let k = s.Sketch.stage_of.(v) and d = s.Sketch.dim_of.(v) in
                let g = Topology.group_of topo ~dim:d v in
                List.iter
                  (fun w ->
                    push (k, d, g)
                      { chunk = cid_of.(w); e_size = size; e_srcs = [ p ]; e_dsts = [ v ] })
                  sub.(v)
              end)
            s.Sketch.parent)
    combo.Combine.sketches;
  let demand_list =
    Hashtbl.fold
      (fun (k, d, g) entries acc ->
        { d_stage = k; d_dim = d; d_group = g; entries = List.rev entries } :: acc)
      demands []
    |> List.sort (fun a b ->
           compare (a.d_stage, a.d_dim, a.d_group) (b.d_stage, b.d_dim, b.d_group))
  in
  { chunks = Array.of_list (List.rev !chunks); demands = demand_list }

(* --- Isomorphism classes --------------------------------------------- *)

let size_key s = Printf.sprintf "%.6e" s

(* Canonical intra-group position order: positions sorted by their multiset
   of roles across entries (1 round of refinement), ties by raw position.
   Good enough to align symmetric demands; a failed alignment is caught by
   verification and re-solved directly. *)
let canonical_positions topo demand =
  let members = Topology.gpus_in_group topo ~dim:demand.d_dim ~group:demand.d_group in
  let np = Array.length members in
  let pos_of = Hashtbl.create np in
  Array.iteri (fun i v -> Hashtbl.replace pos_of v i) members;
  let role p =
    let v = members.(p) in
    (* Refine positions by their fault adjacency first: a member sitting
       next to a dead link (or itself dead) must never be aligned with a
       pristine member of an isomorphic demand, or the transferred solution
       would route through the hole.  Constant on healthy topologies, so
       the canonical order there is unchanged. *)
    let fault_sig =
      if Fault.is_empty (Topology.faults topo) then (true, 0)
      else
        ( Topology.gpu_alive topo v,
          Array.fold_left
            (fun acc u ->
              if u <> v && not (Topology.edge_alive topo ~dim:demand.d_dim u v)
              then acc + 1
              else acc)
            0 members )
    in
    ( fault_sig,
      List.sort compare
        (List.filter_map
           (fun e ->
             let s = List.mem v e.e_srcs and d = List.mem v e.e_dsts in
             if s || d then
               Some (size_key e.e_size, s, d, List.length e.e_srcs, List.length e.e_dsts)
             else None)
           demand.entries) )
  in
  let order = Array.init np (fun i -> i) in
  let roles = Array.init np role in
  Array.sort (fun a b ->
      let c = compare roles.(a) roles.(b) in
      if c <> 0 then c else compare a b)
    order;
  (* rank.(p) = canonical index of position p *)
  let rank = Array.make np 0 in
  Array.iteri (fun i p -> rank.(p) <- i) order;
  (members, pos_of, rank, order)

let class_key topo demand =
  let members, pos_of, rank, _ = canonical_positions topo demand in
  let canon_gpu v = rank.(Hashtbl.find pos_of v) in
  let entry_key e =
    ( size_key e.e_size,
      List.sort compare (List.map canon_gpu e.e_srcs),
      List.sort compare (List.map canon_gpu e.e_dsts) )
  in
  let keys = List.sort compare (List.map entry_key demand.entries) in
  (* Canonical dead-edge set within the group: demands over groups with
     different fault patterns must land in different isomorphism classes
     (empty, hence key-neutral, on healthy topologies). *)
  let dead_edges =
    if Fault.is_empty (Topology.faults topo) then []
    else begin
      let acc = ref [] in
      Array.iteri
        (fun i u ->
          Array.iteri
            (fun j v ->
              if
                i < j
                && not (Topology.edge_alive topo ~dim:demand.d_dim u v)
              then
                acc :=
                  (min rank.(i) rank.(j), max rank.(i) rank.(j)) :: !acc)
            members)
        members;
      List.sort compare !acc
    end
  in
  Marshal.to_string (demand.d_dim, Array.length members, keys, dead_edges) []

let strategy_signature = function
  | Fast_only -> "fast"
  | Milp_refine { e; var_budget; node_limit; time_limit } ->
      Printf.sprintf "milp:%g:%d:%d:%g" e var_budget node_limit time_limit

(* --- Solving ---------------------------------------------------------- *)

let metas_of_demand demand =
  Array.of_list
    (List.map
       (fun e ->
         {
           Schedule.size = e.e_size;
           mode = `Gather;
           initial = e.e_srcs;
           wanted = e.e_dsts;
           tag = 0;
         })
       demand.entries)

(* Causal check per entry: following the entry's transfers from its source
   set must deliver every destination, each exactly once. *)
let verify topo demand xfers =
  let ok = ref true in
  List.iteri
    (fun i e ->
      let mine = List.filter (fun (x : Schedule.xfer) -> x.chunk = i) xfers in
      let holders = Hashtbl.create 8 in
      List.iter (fun v -> Hashtbl.replace holders v ()) e.e_srcs;
      let received = Hashtbl.create 8 in
      let remaining = ref mine and progress = ref true in
      while !progress do
        progress := false;
        let still = ref [] in
        List.iter
          (fun (x : Schedule.xfer) ->
            if Hashtbl.mem holders x.src then begin
              if Hashtbl.mem received x.dst || Hashtbl.mem holders x.dst then ok := false;
              Hashtbl.replace holders x.dst ();
              Hashtbl.replace received x.dst ();
              progress := true
            end
            else still := x :: !still)
          !remaining;
        remaining := !still
      done;
      if !remaining <> [] then ok := false;
      List.iter (fun v -> if not (Hashtbl.mem holders v) then ok := false) e.e_dsts;
      (* Transfers must stay inside the demand's group/dimension. *)
      List.iter
        (fun (x : Schedule.xfer) ->
          if
            x.dim <> demand.d_dim
            || Topology.group_of topo ~dim:x.dim x.src <> demand.d_group
            || Topology.group_of topo ~dim:x.dim x.dst <> demand.d_group
            || not (Topology.edge_alive topo ~dim:x.dim x.src x.dst)
          then ok := false)
        mine)
    demand.entries;
  !ok

(* Whether a transfer list stays on surviving hardware; trivially true on a
   healthy topology. *)
let xfers_alive topo xfers =
  List.for_all
    (fun (x : Schedule.xfer) -> Topology.edge_alive topo ~dim:x.dim x.src x.dst)
    xfers

(* Direct candidate: every destination served straight from a source,
   round-robin with rotated ordering so ingress ports fill evenly.
   Optimal in saturated groups, where store-and-forward relays only add
   load; the greedy wins when relaying genuinely helps. *)
let direct_candidate demand metas =
  let xfers = ref [] in
  List.iteri
    (fun c (e : entry) ->
      let srcs = Array.of_list (List.sort compare e.e_srcs) in
      List.iteri
        (fun i dst ->
          let src = srcs.((i + c) mod Array.length srcs) in
          xfers :=
            {
              Schedule.chunk = c;
              src;
              dst;
              dim = demand.d_dim;
              prio = i;
            }
            :: !xfers)
        (* Rotate destination order per chunk so sources do not all hit the
           same ingress first. *)
        (let d = Array.of_list e.e_dsts in
         let nd = Array.length d in
         List.init nd (fun i -> d.((i + c) mod nd))))
    demand.entries;
  { Schedule.chunks = metas; xfers = List.rev !xfers }

let h_solve_s = Syccl_util.Counters.histogram "subsolve.solve_s"
let h_milp_s = Syccl_util.Counters.histogram "milp.solve_s"
let c_budget_skips = Syccl_util.Counters.int_counter "subsolve.budget_skips"

(* Estimated wall time of one MILP refinement, from the process-wide solve
   history: the p90 of "milp.solve_s" with a floor.  Until enough history
   accumulates, assume the floor — optimistic, but the budget is still
   honoured between pivots inside the solve itself. *)
let estimated_milp_s () =
  let est =
    if Syccl_util.Counters.hist_count h_milp_s >= 8 then
      Syccl_util.Counters.hist_percentile h_milp_s 0.9
    else 0.0
  in
  Float.max 0.01 est

let solve_demand ?warm ?(budget = Syccl_util.Budget.unlimited) ?pool ?cache
    strategy topo demand =
  Syccl_util.Trace.with_span ~cat:"subsolve" "subsolver.solve_demand"
    ~args:
      [
        ("stage", string_of_int demand.d_stage);
        ("dim", string_of_int demand.d_dim);
        ("group", string_of_int demand.d_group);
        ("entries", string_of_int (List.length demand.entries));
        ("strategy", strategy_signature strategy);
      ]
  @@ fun () ->
  Syccl_util.Faultpoint.inject "subsolver.crash";
  let t_solve = Syccl_util.Clock.now () in
  let skip reason =
    Syccl_util.Budget.mark_degraded budget;
    Atomic.incr c_budget_skips;
    Syccl_util.Trace.instant "subsolve.budget_skip"
      ~args:[ ("reason", reason) ]
  in
  let result =
  let metas = metas_of_demand demand in
  let restrict = Greedy.Groups [ (demand.d_dim, demand.d_group) ] in
  let direct = direct_candidate demand metas in
  (* On a punctured topology the straight src→dst fabric may cross a dead
     link; it then stops being the always-valid escape hatch and the greedy
     (which routes around the hole) becomes mandatory. *)
  let direct_ok = xfers_alive topo direct.Schedule.xfers in
  (* A punctured group can be internally disconnected (its only edge may be
     dead); the within-group restriction then makes the demand unsatisfiable
     even though a detour over the other dims exists.  Widen to the whole
     fabric as a last resort — the greedy still only crosses live edges —
     and remember it: the epoch model below covers the group's own edges
     only, so a widened solution must skip MILP refinement. *)
  let widened = ref false in
  let widen () =
    if Fault.is_empty (Topology.faults topo) then None
    else
      match Greedy.solve ~restrict:Greedy.All ~time_budget:1.0 topo metas with
      | Some s ->
          widened := true;
          Syccl_util.Counters.bump "subsolve.widened";
          Some s
      | None -> None
  in
  (* The greedy routes around dead links; a short time-boxed run is the
     escape hatch when the direct fabric is broken but the budget is gone. *)
  let rescue reason =
    skip reason;
    match Greedy.solve ~restrict ~time_budget:1.0 topo metas with
    | Some s -> s
    | None -> (
        match widen () with
        | Some s -> s
        | None ->
            failwith "Subsolver: no fault-avoiding routing for a sub-demand")
  in
  if Syccl_util.Budget.expired budget then begin
    if direct_ok then begin
      (* Past the deadline: the direct candidate is always valid and costs
         nothing to build — return it rather than starting a greedy run. *)
      skip "expired";
      direct.Schedule.xfers
    end
    else (rescue "expired").Schedule.xfers
  end
  else begin
  (* Saturated demands (every GPU pushing many chunks) gain nothing from
     store-and-forward search and make the greedy quadratic; go direct. *)
  let deliveries =
    List.fold_left (fun a e -> a + List.length e.e_dsts) 0 demand.entries
  in
  let greedy =
    if deliveries > 256 && direct_ok then direct
    else
      match Greedy.solve ~restrict ~budget topo metas with
      | Some s ->
          if
            direct_ok
            && Syccl_sim.Sim.time topo direct
               < Syccl_sim.Sim.time topo s -. 1e-15
          then direct
          else s
      | None ->
          if Syccl_util.Budget.expired budget then begin
            (* The greedy was cut off by the deadline, not by an
               unsatisfiable demand. *)
            if direct_ok then begin
              skip "greedy_timeout";
              direct
            end
            else rescue "greedy_timeout"
          end
          else begin
            match widen () with
            | Some s -> s
            | None ->
                failwith "Subsolver: greedy could not satisfy a sub-demand"
          end
  in
  (* Warm start: a known-good solution for this demand (e.g. the coarse
     step's incumbent) supersedes the greedy baseline when it simulates
     faster, so the fine MILP refines from the better of the two. *)
  let greedy =
    match warm with
    | Some xfers when verify topo demand xfers ->
        let w = { Schedule.chunks = metas; xfers } in
        if Syccl_sim.Sim.time topo w < Syccl_sim.Sim.time topo greedy -. 1e-15
        then w
        else greedy
    | _ -> greedy
  in
  let refined =
    match strategy with
    | Fast_only -> greedy
    | Milp_refine _ when !widened -> greedy
    | Milp_refine { e; var_budget; node_limit; time_limit } -> (
        let link = (Topology.dim topo demand.d_dim).Topology.link in
        let max_size =
          List.fold_left (fun a en -> Float.max a en.e_size) 0.0 demand.entries
        in
        let tau, _ = Tau.select ~link ~size:max_size ~e in
        let edges =
          Epoch_model.group_edges topo ~dim:demand.d_dim ~group:demand.d_group
        in
        let spec0 =
          { Epoch_model.topo; chunks = metas; edges; tau; horizon = 0 }
        in
        match Epoch_model.replay { spec0 with horizon = max_int / 2 } greedy with
        | None -> greedy
        | Some h ->
            let spec = { spec0 with horizon = h } in
            let approx_vars =
              Array.length metas
              * ((Array.length edges * h)
                + ((Array.length (Topology.gpus_in_group topo ~dim:demand.d_dim
                      ~group:demand.d_group))
                  * (h + 1)))
            in
            if approx_vars > var_budget then greedy
            else if
              Syccl_util.Budget.has_deadline budget
              && Syccl_util.Budget.remaining budget < estimated_milp_s ()
            then begin
              (* Not enough budget left for a typical MILP solve: keep the
                 greedy incumbent instead of starting a refinement that
                 would be cut off before it improves anything. *)
              skip "milp_estimate";
              greedy
            end
            else begin
              (* Scope warm-basis sharing to this demand's isomorphism
                 class: representatives of distinct classes write distinct
                 keys even when their models coincidentally have the same
                 shape, which keeps concurrent class solves deterministic
                 (see Epoch_model.solve). *)
              let cache_tag =
                match cache with
                | None -> None
                | Some _ -> Some (class_key topo demand)
              in
              match
                Epoch_model.solve ~node_limit ~time_limit ~budget ?pool
                  ?cache ?cache_tag ~incumbent:greedy spec
              with
              | Some (s, _) ->
                  if
                    Syccl_sim.Sim.time topo s
                    < Syccl_sim.Sim.time topo greedy -. 1e-12
                  then s
                  else greedy
              | None -> greedy
            end)
  in
  refined.Schedule.xfers
  end
  in
  Syccl_util.Counters.record h_solve_s (Syccl_util.Clock.elapsed t_solve);
  result

(* --- Mapping representatives onto isomorphic demands ------------------ *)

let transfer topo ~rep ~rep_xfers demand =
  if
    rep.d_dim = demand.d_dim && rep.d_group = demand.d_group
    && rep.entries = demand.entries
  then
    (* Identity mapping: the solution was produced (or already verified)
       for these exact entries in the same group of the same dimension, so
       re-verification — a full simulation — is redundant.  This is the
       common case for the representative's own member and for repeated
       solves of the same problem.  Structurally equal entries under a
       different dim/group must take the general (verified) path: the
       rep's xfers carry its own dim. *)
    Some rep_xfers
  else
  let rep_members, rep_pos, rep_rank, _ = canonical_positions topo rep in
  let dem_members, dem_pos, dem_rank, dem_order =
    canonical_positions topo demand
  in
  if Array.length rep_members <> Array.length dem_members then None
  else
  (* rep GPU -> canonical rank -> demand GPU. *)
  let gpu_map v = dem_members.(dem_order.(rep_rank.(Hashtbl.find rep_pos v))) in
  (* Entry correspondence: sort both entry lists by canonical key. *)
  let entry_keyed d rank_of pos_of =
    List.mapi
      (fun i e ->
        let canon v = rank_of.(Hashtbl.find pos_of v) in
        ( ( size_key e.e_size,
            List.sort compare (List.map canon e.e_srcs),
            List.sort compare (List.map canon e.e_dsts) ),
          i ))
      d.entries
    |> List.sort compare
  in
  let rep_entries = entry_keyed rep rep_rank rep_pos in
  let dem_entries = entry_keyed demand dem_rank dem_pos in
  if List.map fst rep_entries <> List.map fst dem_entries then None
  else begin
    let chunk_map = Hashtbl.create 16 in
    List.iter2
      (fun (_, ri) (_, di) -> Hashtbl.replace chunk_map ri di)
      rep_entries dem_entries;
    (* A widened rep solution (disconnected faulted group, see
       [solve_demand]) may relay through GPUs outside the group; those have
       no canonical position, so the mapping is undefined — decline the
       transfer and let the caller solve the member directly. *)
    match
      List.map
        (fun (x : Schedule.xfer) ->
          {
            x with
            chunk = Hashtbl.find chunk_map x.chunk;
            src = gpu_map x.src;
            dst = gpu_map x.dst;
          })
        rep_xfers
    with
    | exception Not_found -> None
    | mapped -> if verify topo demand mapped then Some mapped else None
  end

let assemble plan ~solution =
  let xfers =
    List.concat_map
      (fun d ->
        let local = solution d in
        let entry_arr = Array.of_list d.entries in
        List.map
          (fun (x : Schedule.xfer) ->
            {
              x with
              chunk = entry_arr.(x.chunk).chunk;
              prio = (d.d_stage * 10_000) + x.prio;
            })
          local)
      plan.demands
  in
  { Schedule.chunks = plan.chunks; xfers }
