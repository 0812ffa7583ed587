(* Pure parts of the benchmark harness: seeded request lists, the
   percentile and tail rules, the span self-time reducer, and the result
   formatting.  Everything here is deterministic, so the self-tests in
   test/ can pin it down without running a workload. *)

module Request = Syccl_serve.Request
module Fleet = Syccl_serve.Fleet
module Synthesizer = Syccl.Synthesizer

(* --- workloads and request lists ---------------------------------------- *)

type workload = Synth_cold | Serve_hits | Serve_lower

let workloads =
  [ ("synth_cold", Synth_cold); ("serve_hits", Serve_hits);
    ("serve_lower", Serve_lower) ]

let workload_name w = fst (List.find (fun (_, w') -> w' = w) workloads)

(* Every request is served with one pool domain, so a run measures the
   same sequential work on any host. *)
let config = { Synthesizer.default_config with Synthesizer.domains = 1 }

let cold_families = [ "a100-16"; "fig3"; "multirail:2x2"; "a100-32" ]

(* The warmed family of the serve_* workloads. *)
let serve_family = "a100-16"
let collectives = Fleet.default_collectives
let anchors = Fleet.default_anchors

(* The serve streams ask for the four unrooted collectives of the warmed
   grid, each template equally often: AllGather and ReduceScatter (the
   kinds the Table 6 traces in lib/workload issue, so 1:1 as there),
   AlltoAll and AllReduce.  Broadcast joins them only at a non-zero root,
   because the transported probe (and the lowering of a transported
   schedule) needs a rooted kind and nothing else does.  The mix is
   synthetic, not measured traffic.  It is chosen for where the median
   lands: with AllGather and ReduceScatter alone, half the requests are
   exact hits within 10% of each other, and a shared host's speed swings
   (about 1.45x, for seconds at a time, on the VM of README.md) move the
   median of such a block in a step; the four kinds spread the hits over
   1-50 ms with no gap at the median, so the median follows the host's
   speed smoothly, as the mean does. *)
let serve_collectives = [ "allgather"; "reducescatter"; "alltoall"; "allreduce" ]
let transported_collective = "broadcast"

type item = {
  req : Request.t;
  family : string;
  collective : string;
  cls : string;
      (** request class: ["cold"], ["exact"], ["rescaled"], ["transported"]
          or ["cross"] (one bucket above an anchor) *)
  channels : int;  (** lowering channel count; 0 when not lowered *)
  pass : int;  (** synth_cold registry pass; 0 otherwise *)
}

let make_item ?(root = 0) ?(channels = 0) ?(pass = 0) ~cls ~family collective
    size =
  {
    req = Request.make ~config ~root ~topology:family ~collective ~size ();
    family;
    collective;
    cls;
    channels;
    pass;
  }

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

let rng ~seed salt = Random.State.make [| seed; salt |]

(* The synth_cold grid is families x collectives x anchors (96 requests).
   Pass [p] is the Latin third where the anchor index is
   (family + collective + p) mod 3: every family meets every collective
   once and every size about equally often.  Passes are fixed, the seed
   only orders the requests inside a pass, so every seed times the same
   mix and a run's spread is timing noise, not a different draw. *)
let cold_pass p =
  List.concat
    (List.mapi
       (fun fi family ->
         List.mapi
           (fun ci collective ->
             let size = List.nth anchors ((fi + ci + p) mod 3) in
             (family, collective, size))
           collectives)
       cold_families)

let synth_cold ~seed ~passes =
  List.concat
    (List.init passes (fun p ->
         let a =
           Array.of_list
             (List.map
                (fun (family, collective, size) ->
                  make_item ~cls:"cold" ~pass:p ~family collective size)
                (cold_pass (p mod 3)))
         in
         shuffle (rng ~seed p) a;
         Array.to_list a))

(* One cycle of a serve stream: every template once.  Both streams ask
   for exact anchors and in-bucket rescales (x1.5) of the serve
   collectives, and for Broadcast at another root (served by symmetry
   transport).  serve_hits also asks for the adjacent bucket (x2.25,
   served by cross-bucket rescaling behind the fallback guard);
   serve_lower lowers every template at each channel count in {1, 2, 4}. *)
let cycle ~lower =
  let templates =
    List.concat_map
      (fun c ->
        List.concat_map
          (fun a ->
            (c, "exact", a) :: (c, "rescaled", 1.5 *. a)
            :: (if lower then [] else [ (c, "cross", Fleet.cross_size a) ]))
          anchors)
      serve_collectives
    @ List.map (fun a -> (transported_collective, "transported", a)) anchors
  in
  let channels = if lower then [ 1; 2; 4 ] else [ 0 ] in
  List.concat_map
    (fun (c, cls, size) -> List.map (fun ch -> (c, cls, size, ch)) channels)
    templates

(* [cycles] shuffled copies of the cycle.  The class quotas are exact, so
   the latency distribution (and the class a tail percentile lands in) is
   the same for every seed; the seed orders the stream and picks the root
   of each transported request. *)
let serve_stream ~seed ~cycles ~lower =
  let templates = Array.of_list (List.concat (List.init cycles (fun _ -> cycle ~lower))) in
  let r = rng ~seed (if lower then 2 else 1) in
  shuffle r templates;
  let n = Syccl_topology.Topology.num_gpus (Request.topo_of_name serve_family) in
  Array.to_list
    (Array.map
       (fun (c, cls, size, channels) ->
         let root = if cls = "transported" then 1 + Random.State.int r (n - 1) else 0 in
         make_item ~root ~channels ~cls ~family:serve_family c size)
       templates)

(* Request counts follow from --seconds through each workload's cost on
   the reference machine (see README.md), never from the clock, so two
   commits given the same arguments serve the same list.  A serve_* run
   spends about 20 s setting up (three warm-ups) and the rest serving: a
   serve_hits cycle costs about 0.53 s, a serve_lower cycle 1.37 s. *)
let cold_passes ~seconds = max 1 (min 3 (int_of_float (seconds /. 30.0)))
let serve_setup_s = 21.0

let cycles_for ~seconds ~cycle_s =
  max 1 (int_of_float (Float.round ((seconds -. serve_setup_s) /. cycle_s)))

let serve_cycles ~seconds = cycles_for ~seconds ~cycle_s:0.53
let lower_cycles ~seconds = cycles_for ~seconds ~cycle_s:1.37

let requests workload ~seed ~seconds =
  match workload with
  | Synth_cold -> synth_cold ~seed ~passes:(cold_passes ~seconds)
  | Serve_hits -> serve_stream ~seed ~cycles:(serve_cycles ~seconds) ~lower:false
  | Serve_lower -> serve_stream ~seed ~cycles:(lower_cycles ~seconds) ~lower:true

(* --- statistics ---------------------------------------------------------- *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* Nearest-rank position (1-based) of percentile [p] among [n] samples. *)
let rank ~n p = max 1 (min n (int_of_float (Float.ceil ((p *. float_of_int n) -. 1e-9))))

let percentile xs p =
  let a = sorted xs in
  if Array.length a = 0 then nan else a.(rank ~n:(Array.length a) p - 1)

let median xs = percentile xs 0.5

(* Harrell-Davis estimate of quantile [q] of the sorted, non-empty [a]:
   the mean of the order statistics, each weighted by the
   Beta((n+1)q, (n+1)(1-q)) mass over its rank's interval ((i-1)/n, i/n]
   (midpoint rule, 16 points an interval).  Latency percentiles are read
   this way rather than off one order statistic because a synth_cold run
   has only 32 requests spread over two decades of latency: which request
   holds a given rank depends on the host's speed while each ran, and
   where the next rank lies 30% away the order statistic jumps by that
   much, while the weighted mean moves only by the weight that changes
   places.  On ten logged synth_cold runs it cut the quartile spread of
   the median from 0.048 to 0.036 and of p68 from 0.066 to 0.047.  With
   the thousand-odd requests of a serve_* run the weights cover a few
   dozen neighbouring ranks. *)
let quantile_hd a q =
  let n = Array.length a and steps = 16 in
  let fn = float_of_int n in
  let alpha = (q *. (fn +. 1.0)) -. 1.0 and beta = ((1.0 -. q) *. (fn +. 1.0)) -. 1.0 in
  let logd =
    Array.init (n * steps) (fun j ->
        let x = (float_of_int j +. 0.5) /. float_of_int (n * steps) in
        (alpha *. log x) +. (beta *. log1p (-.x)))
  in
  let peak = Array.fold_left Float.max neg_infinity logd in
  let num = ref 0.0 and den = ref 0.0 in
  Array.iteri
    (fun j l ->
      let w = exp (l -. peak) in
      num := !num +. (w *. a.(j / steps));
      den := !den +. w)
    logd;
  !num /. !den

let quantile xs q =
  let a = sorted xs in
  if Array.length a = 0 then nan else quantile_hd a q

(* Candidate tail percentiles: every whole percent from 50, then the
   usual finer ones. *)
let tail_ladder =
  List.init 50 (fun i -> float_of_int (50 + i) /. 100.0)
  @ [ 0.995; 0.999; 0.9995; 0.9999 ]

type tail = { p : float; value : float; beyond : int }

(* The highest ladder percentile with at least ten samples ranked above
   it (by nearest rank), and its Harrell-Davis value.  Fewer than 20
   samples leave only the median (with whatever lies beyond it). *)
let tail xs =
  let a = sorted xs in
  let n = Array.length a in
  let beyond p = n - rank ~n p in
  if n = 0 then { p = 0.5; value = nan; beyond = 0 }
  else
    let p =
      List.fold_left (fun best p -> if beyond p >= 10 then p else best) 0.5 tail_ladder
    in
    { p; value = quantile_hd a p; beyond = beyond p }

let percentile_name p = Printf.sprintf "p%g" (100.0 *. p)

let geomean xs =
  match xs with
  | [] -> nan
  | _ ->
      exp (List.fold_left (fun a x -> a +. log x) 0.0 xs /. float_of_int (List.length xs))

(* --- span reduction ------------------------------------------------------ *)

type span = {
  name : string;
  track : int * int;  (** (pid, tid): nesting is only meaningful within one *)
  ts : float;
  dur : float;
  bench : bool;
      (** recorded by the benchmark: a request, or a re-run call named after
          the metric it measures *)
  part : bool;
      (** a benchmark span timing a call the request itself made, on the
          same inputs: its time is taken out of the request's remainder *)
}

(* Self time of every span: its duration minus the part of it that its
   direct children on the same track cover.  With one domain nesting
   follows time, so after sorting a track by (start, longest first) the
   open spans form a stack.  Returned in input order. *)
let self_times spans =
  let a = Array.of_list spans in
  let self = Array.map (fun s -> s.dur) a in
  let order = Array.init (Array.length a) Fun.id in
  Array.stable_sort
    (fun i j ->
      let c = compare a.(i).track a.(j).track in
      if c <> 0 then c
      else
        let c = Float.compare a.(i).ts a.(j).ts in
        if c <> 0 then c else Float.compare a.(j).dur a.(i).dur)
    order;
  let stack = ref [] in
  Array.iter
    (fun i ->
      let s = a.(i) in
      let rec pop () =
        match !stack with
        | j :: rest
          when a.(j).track <> s.track || a.(j).ts +. a.(j).dur <= s.ts ->
            stack := rest;
            pop ()
        | _ -> ()
      in
      pop ();
      (match !stack with
      | j :: _ ->
          let parent_end = a.(j).ts +. a.(j).dur in
          let covered = Float.min (s.ts +. s.dur) parent_end -. s.ts in
          self.(j) <- self.(j) -. Float.max 0.0 covered
      | [] -> ());
      stack := i :: !stack)
    order;
  Array.to_list (Array.mapi (fun i s -> (s, self.(i))) a)

(* Which per-layer metric a library span's self time belongs to. *)
let layer_of_span = function
  | "search.run" | "synth.search" -> Some "search.self_s"
  | "combine.one_to_all" | "combine.all_to_all" | "synth.combine" ->
      Some "combine.self_s"
  | "subsolver.solve_demand" -> Some "subsolver.self_s"
  | "milp.solve" | "milp.wave" -> Some "milp.self_s"
  (* the two solving steps' own time is assembling and simulating the
     candidates they select between *)
  | "synth.solve1" | "synth.solve2" -> Some "synthesizer.select_s"
  | "synthesize" | "synth.phase" | "pool.task" -> Some "synthesizer.self_s"
  | _ -> None

let request_span = "bench.request"

type reduced = {
  layers : (string * float) list;  (** metric name -> total seconds *)
  request_s : float;  (** total duration of the request spans *)
  unattributed_s : float;
      (** request time covered by no library span and no [part]
          benchmark span, plus the self time of unknown library spans *)
  spans_by_name : (string * int) list;
}

(* Benchmark spans are named after the metric they measure; library spans
   map through [layer_of_span]. *)
let reduce spans =
  let totals = Hashtbl.create 32 and counts = Hashtbl.create 32 in
  let add tbl k v =
    Hashtbl.replace tbl k (v +. Option.value ~default:0.0 (Hashtbl.find_opt tbl k))
  in
  let request_s = ref 0.0 and request_self = ref 0.0 in
  let part = ref 0.0 and unknown = ref 0.0 in
  List.iter
    (fun ((s : span), self) ->
      add counts s.name 1.0;
      if s.bench && s.name = request_span then begin
        request_s := !request_s +. s.dur;
        request_self := !request_self +. self
      end
      else if s.bench then begin
        add totals s.name s.dur;
        if s.part then part := !part +. s.dur
      end
      else
        match layer_of_span s.name with
        | Some m -> add totals m self
        | None -> unknown := !unknown +. self)
    (self_times spans);
  let sorted tbl =
    List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])
  in
  {
    layers = sorted totals;
    request_s = !request_s;
    unattributed_s = !request_self -. !part +. !unknown;
    spans_by_name =
      List.map (fun (k, v) -> (k, int_of_float v)) (sorted counts);
  }

(* --- output -------------------------------------------------------------- *)

type metric = { m_name : string; value : float; unit_ : string }

(* Full precision: runs are compared on their raw values. *)
let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let result_line ~correct ~attempted ~failed metrics =
  let m =
    String.concat ", "
      (List.map
         (fun m ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.m_name
             (json_number m.value) m.unit_)
         metrics)
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed m
