module Topology = Syccl_topology.Topology
module Link = Syccl_topology.Link
module Schedule = Syccl_sim.Schedule
module Milp = Syccl_milp.Milp
module Lp = Syccl_milp.Lp

type edge = { eu : int; ev : int; edim : int }

type spec = {
  topo : Topology.t;
  chunks : Schedule.chunk_meta array;
  edges : edge array;
  tau : float;
  horizon : int;
}

let group_edges topo ~dim ~group =
  let members = Topology.gpus_in_group topo ~dim ~group in
  let acc = ref [] in
  Array.iter
    (fun u ->
      Array.iter
        (fun v ->
          if u <> v && Topology.edge_alive topo ~dim u v then
            acc := { eu = u; ev = v; edim = dim } :: !acc)
        members)
    members;
  Array.of_list (List.rev !acc)

let all_edges topo =
  let n = Topology.num_gpus topo in
  let acc = ref [] in
  for u = 0 to n - 1 do
    for v = 0 to n - 1 do
      if u <> v then begin
        (* Lowest dimension connecting the pair (fastest/most local link). *)
        let rec first d =
          if d >= Topology.num_dims topo then None
          else if
            Topology.group_of topo ~dim:d u = Topology.group_of topo ~dim:d v
            && Topology.edge_alive topo ~dim:d u v
          then Some d
          else first (d + 1)
        in
        match first 0 with
        | Some d -> acc := { eu = u; ev = v; edim = d } :: !acc
        | None -> ()
      end
    done
  done;
  Array.of_list (List.rev !acc)

let edge_timing spec c k =
  let link = (Topology.dim spec.topo spec.edges.(k).edim).Topology.link in
  Tau.epochs_for ~link ~size:spec.chunks.(c).Schedule.size ~tau:spec.tau

let port_group spec k = (Topology.dim spec.topo spec.edges.(k).edim).Topology.port_group

(* A schedule quantized onto the epoch grid: the schedule, its makespan,
   every transfer in replay (priority) order with its edge index and start
   epoch, and the epoch from which each chunk is held at each GPU
   ([max_int]: never). *)
type grid = {
  sched : Schedule.t;
  makespan : int;
  starts : (Schedule.xfer * int * int) list;
  hold : int array array;
}

let replay spec (sched : Schedule.t) =
  let n = Topology.num_gpus spec.topo in
  let nd = Topology.num_dims spec.topo in
  let npg =
    1 + Array.fold_left max 0
          (Array.init nd (fun d -> (Topology.dim spec.topo d).Topology.port_group))
  in
  let nc = Array.length spec.chunks in
  let hold = Array.make_matrix nc n max_int in
  Array.iteri
    (fun c (m : Schedule.chunk_meta) -> List.iter (fun v -> hold.(c).(v) <- 0) m.initial)
    spec.chunks;
  let eg = Array.make (n * npg) 0 and ing = Array.make (n * npg) 0 in
  let ordered =
    List.stable_sort (fun (a : Schedule.xfer) b -> compare a.prio b.prio) sched.xfers
  in
  let edge_index = Hashtbl.create 64 in
  Array.iteri (fun k e -> Hashtbl.replace edge_index (e.eu, e.ev, e.edim) k) spec.edges;
  let fits = ref true in
  let makespan = ref 0 in
  let starts = ref [] in
  List.iter
    (fun (x : Schedule.xfer) ->
      if !fits then
        match Hashtbl.find_opt edge_index (x.src, x.dst, x.dim) with
        | None -> fits := false
        | Some k ->
            let lat, busy = edge_timing spec x.chunk k in
            let pg = port_group spec k in
            if hold.(x.chunk).(x.src) = max_int then fits := false
            else begin
              let start =
                max hold.(x.chunk).(x.src)
                  (max eg.((x.src * npg) + pg) ing.((x.dst * npg) + pg))
              in
              eg.((x.src * npg) + pg) <- start + busy;
              ing.((x.dst * npg) + pg) <- start + busy;
              starts := (x, k, start) :: !starts;
              let arrive = start + lat in
              if arrive < hold.(x.chunk).(x.dst) then hold.(x.chunk).(x.dst) <- arrive;
              if arrive > !makespan then makespan := arrive;
              if arrive > spec.horizon then fits := false
            end)
    ordered;
  (* All demands must actually be met under the quantized replay. *)
  Array.iteri
    (fun c (m : Schedule.chunk_meta) ->
      List.iter (fun v -> if hold.(c).(v) = max_int then fits := false) m.wanted)
    spec.chunks;
  if !fits then Some { sched; makespan = !makespan; starts = List.rev !starts; hold }
  else None

let epochs g = g.makespan

(* Variable layout helpers. *)
type layout = {
  model : Milp.model;
  has : int array array array;  (* chunk, gpu, epoch 0..horizon *)
  send : int array array;  (* chunk, edge -> first epoch var id; -1 if none *)
  send_epochs : int array array;  (* number of epoch slots per (chunk, edge) *)
  t_var : int;
}

let build spec =
  let n = Topology.num_gpus spec.topo in
  let nc = Array.length spec.chunks in
  let ne = Array.length spec.edges in
  let horizon = spec.horizon in
  let m = Milp.create () in
  (* Participating GPUs: restrict [has] variables to GPUs that appear in the
     demand or on an allowed edge, to keep models small. *)
  let participates = Array.make n false in
  Array.iter (fun e -> participates.(e.eu) <- true; participates.(e.ev) <- true) spec.edges;
  Array.iter
    (fun (c : Schedule.chunk_meta) ->
      List.iter (fun v -> participates.(v) <- true) c.initial;
      List.iter (fun v -> participates.(v) <- true) c.wanted)
    spec.chunks;
  let is_initial c v = List.mem v spec.chunks.(c).Schedule.initial in
  let is_wanted c v = List.mem v spec.chunks.(c).Schedule.wanted in
  let npairs =
    Array.fold_left (fun a (c : Schedule.chunk_meta) -> a + List.length c.wanted) 0 spec.chunks
  in
  let eps = 1.0 /. float_of_int (((horizon + 1) * max 1 npairs * 10) + 10) in
  let has =
    Array.init nc (fun c ->
        Array.init n (fun v ->
            if not participates.(v) then [||]
            else
              Array.init (horizon + 1) (fun e ->
                  let lb, ub =
                    if is_initial c v then (1.0, 1.0)
                    else if e = 0 then (0.0, 0.0)
                    else if e = horizon && is_wanted c v then (1.0, 1.0)
                    else (0.0, 1.0)
                  in
                  let obj = if is_wanted c v then -.eps else 0.0 in
                  Milp.add_var m ~lb ~ub ~integer:true ~obj
                    (Printf.sprintf "has_c%d_v%d_e%d" c v e))))
  in
  let send = Array.make_matrix nc ne (-1) in
  let send_epochs = Array.make_matrix nc ne 0 in
  for c = 0 to nc - 1 do
    for k = 0 to ne - 1 do
      let lat, _ = edge_timing spec c k in
      let slots = horizon - lat + 1 in
      if slots > 0 then begin
        send_epochs.(c).(k) <- slots;
        let first =
          Milp.binary m (Printf.sprintf "send_c%d_k%d_e0" c k)
        in
        for e = 1 to slots - 1 do
          ignore (Milp.binary m (Printf.sprintf "send_c%d_k%d_e%d" c k e))
        done;
        send.(c).(k) <- first
      end
    done
  done;
  let t_var = Milp.add_var m ~lb:0.0 ~ub:(float_of_int (horizon + 1)) ~obj:1.0 "T" in
  let send_var c k e =
    if send.(c).(k) < 0 || e < 0 || e >= send_epochs.(c).(k) then None
    else Some (send.(c).(k) + e)
  in
  (* Constraints. *)
  for c = 0 to nc - 1 do
    for v = 0 to n - 1 do
      if participates.(v) && not (is_initial c v) then begin
        (* Monotone possession. *)
        for e = 0 to horizon - 1 do
          Milp.add_le m [ (has.(c).(v).(e), 1.0); (has.(c).(v).(e + 1), -1.0) ] 0.0
        done;
        (* Possession only after an arrived send. *)
        for e = 1 to horizon do
          let arrivals = ref [] in
          Array.iteri
            (fun k ed ->
              if ed.ev = v then begin
                let lat, _ = edge_timing spec c k in
                for e' = 0 to min (send_epochs.(c).(k) - 1) (e - lat) do
                  match send_var c k e' with
                  | Some id -> arrivals := (id, -1.0) :: !arrivals
                  | None -> ()
                done
              end)
            spec.edges;
          Milp.add_le m ((has.(c).(v).(e), 1.0) :: !arrivals) 0.0
        done;
        (* Each GPU receives a chunk at most once. *)
        let all_in = ref [] in
        Array.iteri
          (fun k ed ->
            if ed.ev = v then
              for e' = 0 to send_epochs.(c).(k) - 1 do
                match send_var c k e' with
                | Some id -> all_in := (id, 1.0) :: !all_in
                | None -> ()
              done)
          spec.edges;
        if !all_in <> [] then Milp.add_le m !all_in 1.0
      end
    done;
    (* Sends require possession. *)
    Array.iteri
      (fun k ed ->
        for e = 0 to send_epochs.(c).(k) - 1 do
          match send_var c k e with
          | Some id -> Milp.add_le m [ (id, 1.0); (has.(c).(ed.eu).(e), -1.0) ] 0.0
          | None -> ()
        done)
      spec.edges;
    (* Makespan: T >= arrival epoch of each demanded pair. *)
    for v = 0 to n - 1 do
      if participates.(v) && is_wanted c v then begin
        let terms = ref [ (t_var, 1.0) ] in
        for e = 0 to horizon do
          terms := (has.(c).(v).(e), 1.0) :: !terms
        done;
        Milp.add_ge m !terms (float_of_int (horizon + 1))
      end
    done
  done;
  (* Port capacity: at most one in-flight block per (GPU, port group, epoch)
     on each side. *)
  let nd = Topology.num_dims spec.topo in
  let npg =
    1 + Array.fold_left max 0
          (Array.init nd (fun d -> (Topology.dim spec.topo d).Topology.port_group))
  in
  for gpu = 0 to n - 1 do
    if participates.(gpu) then
      for pg = 0 to npg - 1 do
        for e = 0 to horizon - 1 do
          let out_terms = ref [] and in_terms = ref [] in
          Array.iteri
            (fun k ed ->
              if port_group spec k = pg then
                for c = 0 to nc - 1 do
                  let _, busy = edge_timing spec c k in
                  for e' = max 0 (e - busy + 1) to e do
                    match send_var c k e' with
                    | Some id ->
                        if ed.eu = gpu then out_terms := (id, 1.0) :: !out_terms;
                        if ed.ev = gpu then in_terms := (id, 1.0) :: !in_terms
                    | None -> ()
                  done
                done)
            spec.edges;
          if List.length !out_terms > 1 then Milp.add_le m !out_terms 1.0;
          if List.length !in_terms > 1 then Milp.add_le m !in_terms 1.0
        done
      done
  done;
  { model = m; has; send; send_epochs; t_var }

let var_count spec =
  let l = build spec in
  Milp.num_vars l.model

(* Multi-commodity-flow relaxation of the epoch model: each demanded
   (chunk, gpu) pair fractionally picks serving in-edges (Σ r = 1), every
   pick costs its latency against the makespan and its busy time against
   the two port groups it crosses, and T_flow = min T.  Any feasible
   schedule induces such an assignment with r ∈ {0,1} — the serving send
   arrives by the makespan and port slots are exclusive — so ⌈T_flow⌉
   lower-bounds the integral makespan.  One small LP per MILP; the bound
   both prunes branch-and-bound nodes and certifies incumbents that reach
   it (see {!Syccl_milp.Milp.solve}).  [None] (no bound) when a demanded
   pair has no in-edge within the horizon, the relaxation would exceed
   [flow_vars_limit] variables, or its LP does not solve cleanly. *)
let flow_vars_limit = 2000

let flow_bound spec =
  let n = Topology.num_gpus spec.topo in
  let nc = Array.length spec.chunks in
  let nd = Topology.num_dims spec.topo in
  let npg =
    1 + Array.fold_left max 0
          (Array.init nd (fun d -> (Topology.dim spec.topo d).Topology.port_group))
  in
  (* Demanded pairs and their usable in-edges (latency within horizon). *)
  let pairs = ref [] and complete = ref true in
  for c = 0 to nc - 1 do
    List.iter
      (fun v ->
        if not (List.mem v spec.chunks.(c).Schedule.initial) then begin
          let ks = ref [] in
          Array.iteri
            (fun k ed ->
              if ed.ev = v then begin
                let lat, _ = edge_timing spec c k in
                if lat <= spec.horizon then ks := k :: !ks
              end)
            spec.edges;
          if !ks = [] then complete := false
          else pairs := (c, List.rev !ks) :: !pairs
        end)
      spec.chunks.(c).Schedule.wanted
  done;
  let pairs = Array.of_list (List.rev !pairs) in
  let num_vars =
    1 + Array.fold_left (fun a (_, ks) -> a + List.length ks) 0 pairs
  in
  if (not !complete) || Array.length pairs = 0 || num_vars > flow_vars_limit
  then None
  else begin
    (* Variable 0 is T; each pair owns a contiguous block of r variables. *)
    let t_var = 0 in
    let base = Array.make (Array.length pairs) 0 in
    let next = ref 1 in
    Array.iteri
      (fun p (_, ks) ->
        base.(p) <- !next;
        next := !next + List.length ks)
      pairs;
    let objective = Array.make num_vars 0.0 in
    objective.(t_var) <- 1.0;
    let rows = ref [] in
    (* Egress/ingress busy load per (gpu, port group). *)
    let out_load = Array.make (n * npg) [] in
    let in_load = Array.make (n * npg) [] in
    Array.iteri
      (fun p (c, ks) ->
        let assign = List.mapi (fun i k -> (base.(p) + i, k)) ks in
        rows := (List.map (fun (id, _) -> (id, 1.0)) assign, Lp.Eq, 1.0) :: !rows;
        let lat_terms =
          List.map
            (fun (id, k) ->
              let lat, _ = edge_timing spec c k in
              (id, -.float_of_int lat))
            assign
        in
        rows := ((t_var, 1.0) :: lat_terms, Lp.Ge, 0.0) :: !rows;
        List.iter
          (fun (id, k) ->
            let _, busy = edge_timing spec c k in
            if busy > 0 then begin
              let ed = spec.edges.(k) and pg = port_group spec k in
              let term = (id, -.float_of_int busy) in
              out_load.((ed.eu * npg) + pg) <-
                term :: out_load.((ed.eu * npg) + pg);
              in_load.((ed.ev * npg) + pg) <-
                term :: in_load.((ed.ev * npg) + pg)
            end)
          assign)
      pairs;
    Array.iter
      (fun terms ->
        if terms <> [] then rows := ((t_var, 1.0) :: terms, Lp.Ge, 0.0) :: !rows)
      out_load;
    Array.iter
      (fun terms ->
        if terms <> [] then rows := ((t_var, 1.0) :: terms, Lp.Ge, 0.0) :: !rows)
      in_load;
    let problem = { Lp.num_vars; objective; rows = List.rev !rows } in
    match Lp.solve problem with
    | Lp.Optimal { x; _ } -> Some x.(t_var)
    | Lp.Infeasible | Lp.Unbounded | Lp.Iter_limit -> None
  end

(* Copy-growth ("doubling") lower bound: possession of a chunk spreads
   only from its holders, a send lands [lat] epochs after it starts, and a
   holder's egress port starts at most ⌈lat/busy⌉ sends inside any window
   of [lat] epochs — so the holder count after [w] windows is at most
   h₀·(1 + ⌈lat/busy⌉)^w, and reaching the demanded holder count needs at
   least lat·min{w : h₀·gʷ ≥ H} epochs.  Per chunk, ignoring cross-chunk
   port contention (which only helps the bound's soundness).  The flow
   relaxation is tight when port load dominates (all-gather rings); this
   one is tight when propagation depth dominates (single-source
   broadcast).  Applied only to gather chunks whose usable edges share one
   (lat, busy) timing — the within-group sub-demand case; mixed-link edge
   sets contribute 0. *)
let growth_bound spec =
  let nc = Array.length spec.chunks in
  let best = ref 0 in
  for c = 0 to nc - 1 do
    if spec.chunks.(c).Schedule.mode = `Gather then begin
      let uniform = ref true and lat = ref (-1) and busy = ref (-1) in
      Array.iteri
        (fun k _ ->
          let l, b = edge_timing spec c k in
          if !lat < 0 then begin
            lat := l;
            busy := b
          end
          else if l <> !lat || b <> !busy then uniform := false)
        spec.edges;
      let initial = spec.chunks.(c).Schedule.initial in
      let h0 = List.length initial in
      let target =
        List.fold_left
          (fun acc v -> if List.mem v initial then acc else acc + 1)
          h0 spec.chunks.(c).Schedule.wanted
      in
      if !uniform && h0 > 0 && target > h0 && !lat >= 1 then
        if !busy = 0 then best := max !best !lat
        else begin
          let g = 1 + ((!lat + !busy - 1) / !busy) in
          let windows = ref 0 and h = ref h0 in
          while !h < target do
            h := !h * g;
            incr windows
          done;
          best := max !best (!lat * !windows)
        end
    end
  done;
  float_of_int !best

(* Encode a schedule replayed on the epoch grid as a variable assignment. *)
let incumbent_assignment layout g =
  let x = Array.make (Milp.num_vars layout.model) 0.0 in
  List.iter
    (fun ((xf : Schedule.xfer), k, start) ->
      match layout.send.(xf.chunk).(k) with
      | -1 -> ()
      | first -> if start < layout.send_epochs.(xf.chunk).(k) then x.(first + start) <- 1.0)
    g.starts;
  Array.iteri
    (fun c has_c ->
      Array.iteri
        (fun v has_cv ->
          Array.iteri (fun e id -> if g.hold.(c).(v) <= e then x.(id) <- 1.0) has_cv)
        has_c)
    layout.has;
  x.(layout.t_var) <- float_of_int g.makespan;
  if Milp.check_feasible layout.model x then Some x else None

let extract spec layout x =
  let xfers = ref [] in
  let nc = Array.length spec.chunks in
  for c = 0 to nc - 1 do
    Array.iteri
      (fun k ed ->
        for e = 0 to layout.send_epochs.(c).(k) - 1 do
          match
            if layout.send.(c).(k) < 0 then None else Some (layout.send.(c).(k) + e)
          with
          | Some id when x.(id) > 0.5 ->
              xfers :=
                { Schedule.chunk = c; src = ed.eu; dst = ed.ev; dim = ed.edim; prio = e }
                :: !xfers
          | _ -> ()
        done)
      spec.edges
  done;
  let xfers =
    List.stable_sort (fun (a : Schedule.xfer) b -> compare a.prio b.prio) !xfers
  in
  { Schedule.chunks = spec.chunks; xfers }

let solve ?(node_limit = 400) ?(budget = Syccl_util.Budget.unlimited)
    ?incumbent ?pool ?relax spec =
  let incumbent =
    Option.bind incumbent (fun g -> if g.makespan <= spec.horizon then Some g else None)
  in
  let replayed = Option.map (fun g -> (g.sched, g.makespan)) incumbent in
  let layout = build spec in
  (* The caller's variable budget is an estimate; refuse outsized models
     outright rather than letting one LP eat the whole time budget. *)
  if Milp.num_vars layout.model > 3000 then replayed
  else
  let warm = Option.bind incumbent (incumbent_assignment layout) in
  (* The MILP objective is T minus the arrival tie-break, which is bounded
     below 0.1 by construction of [eps] in [build]; so the flow relaxation
     certifies at [⌈T_flow⌉ - 0.1] with a gap of 0.5 — any incumbent whose
     makespan hits ⌈T_flow⌉ is accepted as (makespan-)optimal without
     proving the tie-break optimal too. *)
  let lower_bound =
    let epochs =
      Float.max (growth_bound spec)
        (match flow_bound spec with Some t_flow -> t_flow | None -> 0.0)
    in
    if epochs > 0.0 then Some (Float.ceil (epochs -. 1e-6) -. 0.1) else None
  in
  let result =
    Milp.solve ~node_limit ~budget ?incumbent:warm ?pool ?lower_bound
      ~gap:0.5 ?relax layout.model
  in
  match result.Milp.status with
  | Milp.Optimal | Milp.Feasible ->
      let sched = extract spec layout result.Milp.x in
      let epochs = int_of_float (Float.round result.Milp.x.(layout.t_var)) in
      Some (sched, epochs)
  | Milp.Infeasible | Milp.Unbounded | Milp.Limit ->
      (* Budget ran out with nothing better: fall back to the incumbent. *)
      if Option.is_none warm then None else replayed
