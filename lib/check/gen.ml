(* Seeded random generators for the fuzzing subsystem: topologies (switched,
   ring-ish single-dimension, multi-rail, Clos — with skewed alpha-beta
   link parameters), collectives (every kind, boundary-heavy sizes), valid
   schedules (via the self-validating baseline generators), and schedule
   mutations (dropped / duplicated / reprioritized / cross-wired transfers).

   Everything takes an explicit {!Syccl_util.Xrand.t}, so a (seed, case)
   pair replays the exact same inputs — counterexamples are reproducible by
   construction. *)

module X = Syccl_util.Xrand
module Topology = Syccl_topology.Topology
module Builders = Syccl_topology.Builders
module Link = Syccl_topology.Link
module Collective = Syccl_collective.Collective
module Schedule = Syccl_sim.Schedule

(* Log-uniform bandwidth over two decades plus a latency term that is zero
   a third of the time: zero-alpha links make cost properties exact, while
   skewed alpha/beta ratios exercise the simulator's pipelining paths. *)
let link ?(zero_alpha = false) rng =
  let gbps = 4.0 *. Float.exp (X.float rng (Float.log 100.0)) in
  let alpha =
    if zero_alpha || X.int rng 3 = 0 then 0.0
    else 1e-7 *. Float.exp (X.float rng (Float.log 100.0))
  in
  Link.make ~alpha ~gbps

let topology ?zero_alpha rng =
  match X.int rng 4 with
  | 0 ->
      (* One non-blocking switch: the smallest symmetric case. *)
      let n = X.pick rng [| 2; 3; 4; 6; 8 |] in
      Builders.single_switch ~name:"fuzz-switch" ~n ~link:(link ?zero_alpha rng)
        ()
  | 1 ->
      (* Two-level Clos: grouped dimension structure. *)
      let levels = X.pick rng [| [ 2; 2 ]; [ 2; 4 ]; [ 2; 2; 2 ] |] in
      let links = List.map (fun _ -> link ?zero_alpha rng) levels in
      Builders.clos ~name:"fuzz-clos" ~levels ~links ()
  | 2 ->
      (* Multi-rail: intra-server NVSwitch plus same-rail leaf switches,
         sometimes with a spine dimension sharing the NIC port group. *)
      let servers = X.pick rng [| 2; 3 |] in
      let gpus_per_server = X.pick rng [| 2; 4 |] in
      let nvlink = link ?zero_alpha rng and rail = link ?zero_alpha rng in
      let spine = if X.bool rng then Some (link ?zero_alpha rng) else None in
      Builders.multi_rail ~name:"fuzz-rail" ~servers ~gpus_per_server ~nvlink
        ~rail ?spine ()
  | _ ->
      (* Wide single dimension with a skewed link — ring-schedule country. *)
      let n = X.pick rng [| 4; 5; 8 |] in
      Builders.single_switch ~name:"fuzz-wide" ~n ~link:(link ?zero_alpha rng)
        ()

(* The same family, GPU count and dimension count as [t] in another shape,
   where the family has one: fuzz-clos levels reversed, fuzz-rail servers
   and GPUs per server swapped (spine kept).  Links are drawn afresh. *)
let reshape ?zero_alpha rng (t : Topology.t) =
  let levels = Array.to_list t.Topology.shape in
  let flipped = List.rev levels in
  if flipped = levels then None
  else
    match t.Topology.name with
    | "fuzz-clos" ->
        let links = List.map (fun _ -> link ?zero_alpha rng) flipped in
        Some (Builders.clos ~name:"fuzz-clos" ~levels:flipped ~links ())
    | "fuzz-rail" ->
        let nvlink = link ?zero_alpha rng and rail = link ?zero_alpha rng in
        let spine =
          if Topology.num_dims t > 2 then Some (link ?zero_alpha rng) else None
        in
        Some
          (Builders.multi_rail ~name:"fuzz-rail" ~servers:(List.nth levels 1)
             ~gpus_per_server:(List.hd levels) ~nvlink ~rail ?spine ())
    | _ -> None

let all_kinds =
  [|
    Collective.SendRecv; Collective.Broadcast; Collective.Scatter;
    Collective.Gather; Collective.Reduce; Collective.AllGather;
    Collective.AllToAll; Collective.ReduceScatter; Collective.AllReduce;
  |]

(* Boundary-heavy sizes: exact powers of two and their float neighbours
   (the registry's bucket edges), sub-1.0 fractions (negative buckets), and
   a broad log-uniform band. *)
let size rng =
  match X.int rng 5 with
  | 0 ->
      let k = X.int rng 24 in
      Float.of_int (1 lsl k)
  | 1 ->
      let s = Float.of_int (1 lsl (1 + X.int rng 23)) in
      if X.bool rng then Float.pred s else Float.succ s
  | 2 -> 0.0625 +. X.float rng 0.9
  | _ -> 8.0 *. Float.exp (X.float rng (Float.log 1e5))

let collective ?kinds rng ~n =
  let kinds = Option.value kinds ~default:all_kinds in
  let kind = X.pick rng kinds in
  let root = X.int rng n in
  let peer =
    match kind with
    | Collective.SendRecv ->
        let p = X.int rng (n - 1) in
        if p >= root then p + 1 else p
    | _ -> 0
  in
  Collective.make ~root ~peer kind ~n ~size:(size rng)

(* A valid schedule set (one per phase) for the demand: the simulator-free
   fallback ladder most of the time, NCCL's tuned generators otherwise.
   Both families self-validate before returning. *)
let schedules rng topo coll =
  if X.int rng 4 = 0 then Syccl_baselines.Nccl.schedule topo coll
  else Syccl_baselines.Fallback.schedule topo coll

type mutation = Drop | Duplicate | Reprioritize | Crosswire | Inflate

let mutation_name = function
  | Drop -> "drop"
  | Duplicate -> "duplicate"
  | Reprioritize -> "reprioritize"
  | Crosswire -> "crosswire"
  | Inflate -> "inflate"

let mutations = [| Drop; Duplicate; Reprioritize; Crosswire; Inflate |]

let mutation rng = X.pick rng mutations

(* Replace the transfer at [i] using [f] (or drop it when [f] returns
   [None]); the rest of the schedule is untouched. *)
let map_xfer_at s i f =
  let xfers =
    List.concat
      (List.mapi
         (fun j x -> if j = i then f x else [ x ])
         s.Schedule.xfers)
  in
  { s with Schedule.xfers }

(* Apply a mutation to one schedule.  Returns [None] when the mutation does
   not apply (e.g. no transfers to drop).  Mutants stay inside
   [check_structure]'s vocabulary — endpoints remain peers in their
   dimension — so the deeper causality and coverage checks are the ones
   under test. *)
let mutate rng topo kind (s : Schedule.t) =
  let nx = List.length s.Schedule.xfers in
  match kind with
  | Inflate ->
      (* Add a non-contributor GPU to a reduce chunk's [initial]: the
         demand-coverage check must reject the extra reduction operand
         (set equality, not inclusion). *)
      let n = Topology.num_gpus topo in
      let candidates = ref [] in
      Array.iteri
        (fun c (m : Schedule.chunk_meta) ->
          if m.mode = `Reduce && List.length m.initial < n then
            candidates := c :: !candidates)
        s.Schedule.chunks;
      (match !candidates with
      | [] -> None
      | cs ->
          let c = List.nth cs (X.int rng (List.length cs)) in
          let m = s.Schedule.chunks.(c) in
          let extra =
            let rec pick () =
              let v = X.int rng n in
              if List.mem v m.Schedule.initial then pick () else v
            in
            pick ()
          in
          let chunks = Array.copy s.Schedule.chunks in
          chunks.(c) <- { m with Schedule.initial = extra :: m.Schedule.initial };
          Some { s with Schedule.chunks })
  | _ when nx = 0 -> None
  | _ -> (
    let i = X.int rng nx in
    match kind with
    | Inflate -> None
    | Drop -> Some (map_xfer_at s i (fun _ -> []))
    | Duplicate -> Some (map_xfer_at s i (fun x -> [ x; x ]))
    | Reprioritize ->
        (* Colliding and negative priorities; validity must not depend on
           them. *)
        Some
          {
            s with
            Schedule.xfers =
              List.map
                (fun (x : Schedule.xfer) ->
                  { x with Schedule.prio = X.int rng 9 - 4 })
                s.Schedule.xfers;
          }
    | Crosswire ->
        (* Retarget one endpoint to a random other member of the same
           (dimension, group), so the mutant survives [check_structure] and
           the deeper causality checks are the ones exercised. *)
        let x = List.nth s.Schedule.xfers i in
        let peers = Topology.peers topo ~dim:x.Schedule.dim x.Schedule.src in
        if Array.length peers = 0 then None
        else
          let dst = X.pick rng peers in
          Some
            (map_xfer_at s i (fun x ->
                 if X.bool rng then [ { x with Schedule.dst } ]
                 else [ { x with Schedule.src = dst; dst = x.Schedule.src } ])))

(* Small random LPs for the dense-vs-revised simplex differential: few
   variables, small integer and half-integer coefficients (degenerate ties
   and exact arithmetic on purpose), mostly-Le rows with occasional Ge/Eq,
   and right-hand sides that keep a fair share of the problems feasible.
   [lp_over] draws the objective and fewer than [max_rows] rows. *)
let lp_over rng ~num_vars ~max_rows =
  let coef () =
    let v = Float.of_int (X.int rng 9 - 4) in
    if X.bool rng then v else v /. 2.0
  in
  let objective = Array.init num_vars (fun _ -> coef ()) in
  let num_rows = X.int rng max_rows in
  let rows =
    List.init num_rows (fun _ ->
        let nterms = 1 + X.int rng num_vars in
        let vars = Array.init num_vars Fun.id in
        X.shuffle rng vars;
        let terms =
          List.init nterms (fun i -> (vars.(i), coef ()))
          |> List.filter (fun (_, c) -> c <> 0.0)
        in
        let cmp =
          match X.int rng 8 with
          | 0 | 1 -> Syccl_milp.Lp.Ge
          | 2 -> Syccl_milp.Lp.Eq
          | _ -> Syccl_milp.Lp.Le
        in
        let rhs = Float.of_int (X.int rng 13 - 2) in
        (terms, cmp, rhs))
    |> List.filter (fun (terms, _, _) -> terms <> [])
  in
  { Syccl_milp.Lp.num_vars; objective; rows }

let lp rng = lp_over rng ~num_vars:(1 + X.int rng 6) ~max_rows:9

let milp rng =
  let num_vars = 1 + X.int rng 6 in
  let vars =
    Array.init num_vars (fun _ ->
        let lb = Float.of_int (X.int rng 3) in
        let ub = lb +. Float.of_int (X.int rng 5) +. if X.bool rng then 0.0 else 0.5 in
        (lb, ub, X.bool rng))
  in
  (lp_over rng ~num_vars ~max_rows:6, vars)
