(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (§7) as printed rows/series, plus one Bechamel micro-benchmark
   per artifact (run with --micro).

   Usage:
     dune exec bench/main.exe                 # every target, quick sweeps
     dune exec bench/main.exe -- fig14a tab5  # selected targets
     dune exec bench/main.exe -- --full       # full sweeps / budgets
     dune exec bench/main.exe -- --micro      # add bechamel micro-benchmarks
     dune exec bench/main.exe -- fig16c --smoke  # tiny CI-sized run *)

module T = Syccl_topology.Topology
module Builders = Syccl_topology.Builders
module C = Syccl_collective.Collective
module Sim = Syccl_sim.Sim
module Synth = Syccl.Synthesizer
module Teccl = Syccl_teccl.Teccl
module Nccl = Syccl_baselines.Nccl
module Crafted = Syccl_baselines.Crafted
module Stats = Syccl_util.Stats
module Counters = Syccl_util.Counters

let full = ref false
let smoke = ref false

(* `report` target configuration (see bench_report). *)
let report_baseline = ref "BENCH_milp_baseline.json"
let report_current = ref "BENCH_milp.json"
let report_threshold = ref 8.0
let report_check = ref false

(* Pool/cache activity footer for the synthesis-time figures. *)
let runtime_stats () =
  let v = Counters.value in
  let rate hits misses =
    let total = hits +. misses in
    if total <= 0.0 then 0.0 else 100.0 *. hits /. total
  in
  let sh = v "cache.subsolve.hits" and sm = v "cache.subsolve.misses" in
  Printf.printf
    "   [pool: %.0f tasks, %.0f steals | subsolve cache: %.0f/%.0f hits \
     (%.0f%%) | search cache: %.0f hits | combo cache: %.0f hits]\n%!"
    (v "pool.tasks") (v "pool.steals") sh (sh +. sm) (rate sh sm)
    (v "cache.search.hits") (v "cache.combo.hits")

let sizes () =
  if !full then
    [ 1.024e3; 4.096e3; 1.6384e4; 6.5536e4; 2.62144e5; 1.048576e6; 4.194304e6;
      1.6777216e7; 6.7108864e7; 2.68435456e8; 1.073741824e9; 4.294967296e9 ]
  else [ 1.024e3; 6.5536e4; 1.048576e6; 1.6777216e7; 2.68435456e8; 1.073741824e9 ]

let teccl_budget () = if !full then 600.0 else 30.0

let pp_size s =
  if s >= 1.073741824e9 then Printf.sprintf "%.0fG" (s /. 1.073741824e9)
  else if s >= 1.048576e6 then Printf.sprintf "%.0fM" (s /. 1.048576e6)
  else if s >= 1024.0 then Printf.sprintf "%.0fK" (s /. 1024.0)
  else Printf.sprintf "%.0fB" s

(* Memoized per-system results so overlapping targets do not recompute. *)
type entry = { busbw : float; time : float; synth : float }

let cache : (string, entry option) Hashtbl.t = Hashtbl.create 64

let memo key f =
  match Hashtbl.find_opt cache key with
  | Some v -> v
  | None ->
      let v = f () in
      Hashtbl.replace cache key v;
      v

let syccl_cfg = { Synth.default_config with fast_only = true }

let coll_key coll = Format.asprintf "%a" C.pp coll

let syccl ?(tag = "") topo coll =
  memo (Printf.sprintf "syccl/%d/%s/%s" (T.num_gpus topo) tag (coll_key coll))
    (fun () ->
      let o = Synth.synthesize ~config:syccl_cfg topo coll in
      Some { busbw = o.Synth.busbw; time = o.Synth.time; synth = o.Synth.synth_time })

let syccl_outcome topo coll cfg = Synth.synthesize ~config:cfg topo coll

let teccl topo coll =
  memo (Printf.sprintf "teccl/%d/%s" (T.num_gpus topo) (coll_key coll))
    (fun () ->
      let o = Teccl.synthesize ~time_budget:(teccl_budget ()) topo coll in
      match o.Teccl.schedules with
      | None -> None
      | Some ss ->
          let time = Sim.phases_time topo ss in
          Some { busbw = C.busbw coll ~time; time; synth = o.Teccl.synth_time })

let nccl ?blocks topo coll =
  memo (Printf.sprintf "nccl/%d/%s" (T.num_gpus topo) (coll_key coll))
    (fun () ->
      let time = Nccl.time ?blocks topo coll in
      Some { busbw = C.busbw coll ~time; time; synth = 0.0 })

let opt_bw = function Some e -> Printf.sprintf "%8.2f" e.busbw | None -> " timeout"

let speedup a b =
  match (a, b) with
  | Some x, Some y when y.busbw > 0.0 -> Printf.sprintf "%6.2fx" (x.busbw /. y.busbw)
  | _ -> "     -"

(* --- Figure 14 / 15 style sweeps -------------------------------------- *)

let sweep ?blocks ~name ~caption topo kind =
  let n = T.num_gpus topo in
  Printf.printf "\n== %s: %s ==\n" name caption;
  Printf.printf "%6s %10s %10s %10s %9s %9s\n" "size" "TECCL" "NCCL" "SyCCL"
    "vs NCCL" "vs TECCL";
  List.iter
    (fun size ->
      let coll = C.make kind ~n ~size in
      let s = syccl topo coll in
      let v = nccl ?blocks topo coll in
      let t = teccl topo coll in
      Printf.printf "%6s %10s %10s %10s %9s %9s\n%!" (pp_size size) (opt_bw t)
        (opt_bw v) (opt_bw s) (speedup s v) (speedup s t))
    (sizes ())

let fig14a () =
  sweep ~name:"Fig 14(a)" ~caption:"AllGather on 16 A100 GPUs, busbw (GBps)"
    (Builders.a100 ~servers:2) C.AllGather

let fig14b () =
  sweep ~name:"Fig 14(b)" ~caption:"AllGather on 32 A100 GPUs, busbw (GBps)"
    (Builders.a100 ~servers:4) C.AllGather

let fig14c () =
  sweep ~name:"Fig 14(c)" ~caption:"ReduceScatter on 16 A100 GPUs, busbw (GBps)"
    (Builders.a100 ~servers:2) C.ReduceScatter

let fig14d () =
  sweep ~name:"Fig 14(d)" ~caption:"AlltoAll on 16 A100 GPUs, busbw (GBps)"
    (Builders.a100 ~servers:2) C.AllToAll

let fig15a () =
  sweep ~name:"Fig 15(a)" ~caption:"AllGather on 64 H800 GPUs, busbw (GBps)"
    (Builders.h800 ~servers:8) C.AllGather

let fig15b () =
  Printf.printf
    "\n== Fig 15(b): AllGather on 512 H800 GPUs (TECCL times out, as in the paper) ==\n";
  Printf.printf "%6s %10s %10s %10s %9s\n" "size" "TECCL" "NCCL" "SyCCL" "vs NCCL";
  let topo = Builders.h800 ~servers:64 in
  let szs = if !full then sizes () else [ 1.048576e6; 1.073741824e9 ] in
  List.iter
    (fun size ->
      let coll = C.make C.AllGather ~n:512 ~size in
      (* TECCL's whole-problem construction does not finish at this scale
         inside any practical budget; reproduce the paper's timeout row. *)
      let t =
        let o = Teccl.synthesize ~time_budget:(if !full then 60.0 else 5.0) topo coll in
        match o.Teccl.schedules with
        | None -> None
        | Some ss ->
            let time = Sim.phases_time ~blocks:2 topo ss in
            Some { busbw = C.busbw coll ~time; time; synth = o.Teccl.synth_time }
      in
      let s = syccl ~tag:"512" topo coll in
      let v = nccl ~blocks:2 topo coll in
      Printf.printf "%6s %10s %10s %10s %9s\n%!" (pp_size size) (opt_bw t) (opt_bw v)
        (opt_bw s) (speedup s v))
    szs

let fig15c () =
  sweep ~name:"Fig 15(c)" ~caption:"AlltoAll on 64 H800 GPUs, busbw (GBps)"
    (Builders.h800 ~servers:8) C.AllToAll

(* --- Figure 16 / Table 5: synthesis time ------------------------------ *)

let fig16a () =
  Printf.printf "\n== Fig 16(a): synthesis time (s), AllGather on A100 ==\n";
  Printf.printf "%6s %14s %14s %14s %14s\n" "size" "SyCCL-16" "TECCL-16" "SyCCL-32"
    "TECCL-32";
  let t16 = Builders.a100 ~servers:2 and t32 = Builders.a100 ~servers:4 in
  let fmt = function
    | Some e -> Printf.sprintf "%14.2f" e.synth
    | None -> Printf.sprintf "%14s" "timeout"
  in
  List.iter
    (fun size ->
      let c16 = C.make C.AllGather ~n:16 ~size in
      let c32 = C.make C.AllGather ~n:32 ~size in
      Printf.printf "%6s %s %s %s %s\n%!" (pp_size size) (fmt (syccl t16 c16))
        (fmt (teccl t16 c16)) (fmt (syccl t32 c32)) (fmt (teccl t32 c32)))
    (sizes ())

let fig16b () =
  Printf.printf
    "\n== Fig 16(b): SyCCL synthesis time breakdown (s), 32 A100 GPUs ==\n";
  Counters.reset ();
  Synth.reset_caches ();
  Printf.printf "%6s %5s | %8s %8s %8s %8s %8s\n" "size" "coll" "search" "combine"
    "solve1" "solve2" "total";
  let hits = ref 0 and misses = ref 0 and solves = ref 0 and nodes = ref 0 in
  let topo = Builders.a100 ~servers:4 in
  List.iter
    (fun (kind, kname) ->
      List.iter
        (fun size ->
          let coll = C.make kind ~n:32 ~size in
          let o = syccl_outcome topo coll syccl_cfg in
          let b = o.Synth.breakdown in
          Printf.printf "%6s %5s | %8.3f %8.3f %8.3f %8.3f %8.3f\n%!" (pp_size size)
            kname b.Synth.search_s b.Synth.combine_s b.Synth.solve1_s
            b.Synth.solve2_s o.Synth.synth_time;
          hits := !hits + b.Synth.cache_hits;
          misses := !misses + b.Synth.cache_misses;
          solves := !solves + b.Synth.milp_solves;
          nodes := !nodes + b.Synth.milp_nodes)
        (if !smoke then [ 1.048576e6 ] else sizes ()))
    [ (C.AllGather, "AG"); (C.AllToAll, "A2A") ];
  (* Per-call breakdowns now carry solver/cache activity directly, so the
     footer no longer has to grep counter names. *)
  Printf.printf
    "   [solver: %d memo hits / %d misses, %d MILP models, %d B&B nodes]\n%!"
    !hits !misses !solves !nodes;
  runtime_stats ()

let fig16c () =
  Printf.printf
    "\n== Fig 16(c): synthesis time (s) vs parallel solver instances ==\n";
  Counters.reset ();
  Synth.reset_caches ();
  let topo = if !smoke then Builders.h800 ~servers:2 else Builders.h800 ~servers:8 in
  let n = T.num_gpus topo in
  let domain_counts = if !smoke then [ 1; 2 ] else [ 1; 2; 4; 8 ] in
  Printf.printf "%6s %10s" "size" "TECCL";
  List.iter (fun d -> Printf.printf " %8s" (Printf.sprintf "SyCCL-%d" d)) domain_counts;
  print_newline ();
  List.iter
    (fun size ->
      let coll = C.make C.AllGather ~n ~size in
      let t =
        if !smoke then Printf.sprintf "%10s" "skipped"
        else
          match teccl topo coll with
          | Some e -> Printf.sprintf "%10.2f" e.synth
          | None -> Printf.sprintf "%10s" "timeout"
      in
      Printf.printf "%6s %s" (pp_size size) t;
      List.iter
        (fun d ->
          (* Every domain count must measure a cold solve: without this the
             domains=1 run would populate the search and combination caches
             and the later columns would time only the sub-solves. *)
          Synth.reset_caches ();
          let cfg = { syccl_cfg with domains = d } in
          let o = syccl_outcome topo coll cfg in
          Printf.printf " %8.2f%!" o.Synth.synth_time)
        domain_counts;
      print_newline ())
    (if !smoke then [ 1.048576e6 ] else [ 1.048576e6; 1.6777216e7; 1.073741824e9 ]);
  runtime_stats ()

let tab5 () =
  Printf.printf "\n== Table 5: synthesis time (s), min/max/mean over the sweep ==\n";
  Printf.printf
    "(paper means, Gurobi-based TECCL vs SyCCL: 1193->0.8s, 15759->3.6s, \
     8200->9.0s, 28200->1.6s, 29371->5.7s, timeout->2246s)\n";
  Printf.printf "%-16s %28s %28s %9s\n" "scenario" "TECCL (min/max/mean)"
    "SyCCL (min/max/mean)" "speedup";
  let scenarios =
    [
      ("16 A100, AG", Builders.a100 ~servers:2, C.AllGather, true);
      ("16 A100, A2A", Builders.a100 ~servers:2, C.AllToAll, true);
      ("32 A100, AG", Builders.a100 ~servers:4, C.AllGather, true);
      ("64 H800, AG", Builders.h800 ~servers:8, C.AllGather, true);
      ("64 H800, A2A", Builders.h800 ~servers:8, C.AllToAll, true);
      ("512 H800, AG", Builders.h800 ~servers:64, C.AllGather, false);
    ]
  in
  List.iter
    (fun (name, topo, kind, run_teccl) ->
      let n = T.num_gpus topo in
      let szs =
        if n >= 512 && not !full then [ 1.048576e6; 1.073741824e9 ]
        else sizes ()
      in
      let sy = ref [] and te = ref [] and te_timeout = ref false in
      List.iter
        (fun size ->
          let coll = C.make kind ~n ~size in
          (match syccl ~tag:(if n >= 512 then "512" else "") topo coll with
          | Some e -> sy := e.synth :: !sy
          | None -> ());
          if run_teccl then
            match teccl topo coll with
            | Some e -> te := e.synth :: !te
            | None -> te_timeout := true)
        szs;
      let fmt l =
        match (Stats.min_max_opt l, Stats.mean_opt l) with
        | Some (lo, hi), Some m -> Printf.sprintf "%9.1f/%9.1f/%7.1f" lo hi m
        | _ -> Printf.sprintf "%28s" "timeout"
      in
      let speed =
        match (Stats.mean_opt !te, Stats.mean_opt !sy) with
        | Some te_m, Some sy_m when sy_m > 0.0 ->
            Printf.sprintf "%8.0fx" (te_m /. sy_m)
        | _ -> "      N/A"
      in
      let te_str = if run_teccl then fmt !te else Printf.sprintf "%28s" "timeout" in
      Printf.printf "%-16s %s %s %s%s\n%!" name te_str (fmt !sy) speed
        (if !te_timeout then "  (TECCL timed out on some sizes)" else ""))
    scenarios

(* --- Figure 17: ablations ---------------------------------------------- *)

let fig17a () =
  Printf.printf
    "\n== Fig 17(a): pruning ablation (24 GPUs, 6 servers x 4, H800 links) ==\n";
  Printf.printf "%6s | %14s %14s %14s %14s\n" "size" "w/o#1 w/o#2" "w/o#1 w/#2"
    "w/#1 w/o#2" "w/#1 w/#2";
  let topo = Builders.h800_scaled ~servers:6 ~gpus_per_server:4 in
  let configs =
    List.map
      (fun (p1, p2) ->
        let base = Syccl.Search.default topo `Broadcast in
        { base with Syccl.Search.prune_isomorphic = p1; prune_consistency = p2 })
      [ (false, false); (false, true); (true, false); (true, true) ]
  in
  let szs = if !full then sizes () else [ 1.048576e6; 6.7108864e7; 1.073741824e9 ] in
  List.iter
    (fun size ->
      let coll = C.make C.AllGather ~n:24 ~size in
      Printf.printf "%6s |" (pp_size size);
      List.iter
        (fun sc ->
          let cfg = { syccl_cfg with search_config = Some sc } in
          let o = syccl_outcome topo coll cfg in
          Printf.printf " %6.2fs/%5.1fG%!" o.Synth.synth_time o.Synth.busbw)
        configs;
      print_newline ())
    szs

let fig17b () =
  Printf.printf "\n== Fig 17(b): AlltoAll stage-limit ablation (24 GPUs) ==\n";
  Printf.printf "%6s | %14s %14s %14s\n" "size" "3-stage" "5-stage" "10-stage";
  let topo = Builders.h800_scaled ~servers:6 ~gpus_per_server:4 in
  let szs = if !full then sizes () else [ 1.048576e6; 6.7108864e7; 1.073741824e9 ] in
  List.iter
    (fun size ->
      let coll = C.make C.AllToAll ~n:24 ~size in
      Printf.printf "%6s |" (pp_size size);
      List.iter
        (fun stages ->
          let base = Syccl.Search.default topo `Scatter in
          let sc = { base with Syccl.Search.max_stages = stages } in
          let cfg = { syccl_cfg with search_config = Some sc } in
          let o = syccl_outcome topo coll cfg in
          Printf.printf " %6.2fs/%5.1fG%!" o.Synth.synth_time o.Synth.busbw)
        [ 3; 5; 10 ];
      print_newline ())
    szs

let fig17c () =
  Printf.printf "\n== Fig 17(c): epoch-accuracy knob E2 (16 A100 GPUs) ==\n";
  Printf.printf "%6s | %16s %16s %16s   (solve2 s / busbw)\n" "size" "E2=0.1"
    "E2=0.2" "E2=1.0";
  let topo = Builders.a100 ~servers:2 in
  let szs = if !full then sizes () else [ 6.5536e4; 1.6777216e7; 1.073741824e9 ] in
  List.iter
    (fun size ->
      let coll = C.make C.AllGather ~n:16 ~size in
      Printf.printf "%6s |" (pp_size size);
      List.iter
        (fun e2 ->
          let cfg =
            { syccl_cfg with fast_only = false; e2; milp_time_limit = 5.0;
              milp_node_limit = 40 }
          in
          let o = syccl_outcome topo coll cfg in
          Printf.printf " %7.2fs/%6.1fG%!" o.Synth.breakdown.Synth.solve2_s
            o.Synth.busbw)
        [ 0.1; 0.2; 1.0 ];
      print_newline ())
    szs

(* --- Table 6: end-to-end training -------------------------------------- *)

let tab6 () =
  Printf.printf "\n== Table 6: end-to-end training iteration time (ms) ==\n";
  let paper =
    [
      ("GPT3-6.7B, DP16", (672.4, 653.0, 630.0));
      ("GPT3-6.7B, TP16", (200.0, 197.7, 192.5));
      ("GPT3-6.7B, TP32", (219.4, 216.5, 209.7));
      ("Llama3-8B, DP16", (1195.4, 1153.8, 1135.4));
      ("Llama3-8B, TP16", (433.9, 422.2, 412.6));
      ("Llama3-8B, TP32", (854.9, 887.4, 851.5));
    ]
  in
  Printf.printf "%-18s %10s %10s %10s %9s %9s   %s\n" "model/parallelism" "NCCL"
    "TECCL" "SyCCL" "vs NCCL" "vs TECCL" "paper (N/T/S)";
  List.iter
    (fun (w : Syccl_workload.Workload.t) ->
      let topo =
        if w.Syccl_workload.Workload.num_gpus = 16 then Builders.a100 ~servers:2
        else Builders.a100 ~servers:4
      in
      let nccl_t coll =
        match nccl topo coll with Some e -> e.time | None -> infinity
      in
      let teccl_t coll =
        match teccl topo coll with Some e -> e.time | None -> nccl_t coll
      in
      let syccl_t coll =
        match syccl topo coll with Some e -> e.time | None -> infinity
      in
      let it f = Syccl_workload.Workload.iteration_ms w ~comm_time:f in
      let a = it nccl_t and b = it teccl_t and c = it syccl_t in
      let ref_str =
        match List.assoc_opt w.Syccl_workload.Workload.wname paper with
        | Some (pn, pt, ps) -> Printf.sprintf "%.0f/%.0f/%.0f" pn pt ps
        | None -> "-"
      in
      Printf.printf "%-18s %10.1f %10.1f %10.1f %8.1f%% %8.1f%%   %s\n%!"
        w.Syccl_workload.Workload.wname a b c
        ((a -. c) /. a *. 100.0)
        ((b -. c) /. b *. 100.0)
        ref_str)
    (Syccl_workload.Workload.all ())

(* --- Figures 21 / 22: hand-crafted schedules --------------------------- *)

let crafted_sweep ~name ~improved topo =
  let n = T.num_gpus topo in
  Printf.printf "\n== %s: AllGather on %d GPUs vs hand-crafted schedules ==\n" name n;
  Printf.printf "%6s %22s %10s %10s %10s\n" "size" "best crafted" "crafted" "NCCL"
    "SyCCL";
  List.iter
    (fun size ->
      let coll = C.make C.AllGather ~n ~size in
      let cname, _, ct = Crafted.best_allgather ~improved topo coll in
      let v = nccl topo coll in
      let s = syccl topo coll in
      Printf.printf "%6s %22s %10.2f %10s %10s\n%!" (pp_size size) cname
        (C.busbw coll ~time:ct) (opt_bw v) (opt_bw s))
    (sizes ())

let fig21a () = crafted_sweep ~name:"Fig 21(a)" ~improved:false (Builders.a100 ~servers:2)
let fig21b () = crafted_sweep ~name:"Fig 21(b)" ~improved:false (Builders.h800 ~servers:8)
let fig22a () = crafted_sweep ~name:"Fig 22(a), improved" ~improved:true (Builders.h800 ~servers:8)

(* --- Bechamel micro-benchmarks: one per artifact ------------------------ *)

let micro () =
  let open Bechamel in
  let a16 = Builders.a100 ~servers:2 in
  let a32 = Builders.a100 ~servers:4 in
  let h64 = Builders.h800 ~servers:8 in
  let scaled = Builders.h800_scaled ~servers:6 ~gpus_per_server:4 in
  let ag n size = C.make C.AllGather ~n ~size in
  let synth topo coll () = ignore (Synth.synthesize ~config:syccl_cfg topo coll) in
  let simulate topo sched () = ignore (Sim.time topo sched) in
  let ring16 = Syccl_baselines.Ring.allgather a16 (ag 16 1.048576e6) in
  let tests =
    [
      Test.make ~name:"fig14a_synth_ag16" (Staged.stage (synth a16 (ag 16 1.048576e6)));
      Test.make ~name:"fig14b_synth_ag32" (Staged.stage (synth a32 (ag 32 1.048576e6)));
      Test.make ~name:"fig14c_synth_rs16"
        (Staged.stage (synth a16 (C.make C.ReduceScatter ~n:16 ~size:1.048576e6)));
      Test.make ~name:"fig14d_synth_a2a16"
        (Staged.stage (synth a16 (C.make C.AllToAll ~n:16 ~size:1.048576e6)));
      Test.make ~name:"fig15_sim_ring16" (Staged.stage (simulate a16 ring16));
      Test.make ~name:"fig16_search_h64"
        (Staged.stage (fun () -> ignore (Syccl.Search.run h64 ~kind:`Broadcast ~root:0)));
      Test.make ~name:"fig17_search_scaled"
        (Staged.stage (fun () -> ignore (Syccl.Search.run scaled ~kind:`Broadcast ~root:0)));
      Test.make ~name:"tab5_greedy_ag16"
        (Staged.stage (fun () ->
             ignore (Teccl.synthesize ~restarts:1 ~milp_var_budget:0 a16 (ag 16 1.048576e6))));
      Test.make ~name:"tab6_nccl_time"
        (Staged.stage (fun () -> ignore (Nccl.time a16 (ag 16 1.048576e6))));
      Test.make ~name:"fig21_crafted_best"
        (Staged.stage (fun () -> ignore (Crafted.best_allgather a16 (ag 16 1.048576e6))));
    ]
  in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |] in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:20 ~quota:(Time.second 1.0) ~kde:None () in
  Printf.printf "\n== Bechamel micro-benchmarks (ns/run) ==\n";
  List.iter
    (fun test ->
      List.iter
        (fun elt ->
          let b = Benchmark.run cfg [ instance ] elt in
          let est = Analyze.one ols instance b in
          let ns =
            match Analyze.OLS.estimates est with Some (v :: _) -> v | _ -> nan
          in
          Printf.printf "%-24s %14.0f ns/run\n%!" (Test.Elt.name elt) ns)
        (Test.elements test))
    tests

(* A BENCH_*.json file, pretty-printed, for `report --check`. *)
let write_bench_json path json =
  let oc = open_out path in
  output_string oc (Syccl_util.Json.to_string ~pretty:true json);
  output_char oc '\n';
  close_out oc;
  Printf.printf "   wrote %s\n%!" path

(* --- `milp` target: dense-tableau vs revised-sparse solver A/B ---------- *)

(* A/B the two LP engines behind branch-and-bound on the models SyCCL
   actually solves: one merged sub-demand per GPU group (whole-collective
   epoch models blow the solver's variable guard long before 16 GPUs,
   which is exactly why the paper decomposes by group).  Every group of a
   dimension is isomorphic, so the sibling models share their shape — the
   revised engine additionally gets the warm-start basis cache and the
   worker pool, matching how the synthesizer drives it; the dense engine
   runs every model cold, which is all a one-shot tableau can do.  Two
   demand shapes per group cover both halves of the solver:

   - "bcast" (4 single-source chunks, tree incumbents) certifies at the
     root via the flow/growth bound, so it measures pure root-relaxation
     throughput on the bigger model;
   - "multi" (2 chunks) leaves a bound gap, so branch-and-bound explores
     and the child re-solves (warm dual pivots vs cold tableaux) dominate.

   Emits BENCH_milp.json next to the binary and fails the process if the
   two engines disagree on any objective — every row is solved to proven
   optimality, so the objectives must match exactly. *)

module EM = Syccl_teccl.Epoch_model
module Link = Syccl_topology.Link

(* Binomial-tree broadcast of one chunk inside a group: round [k] has the
   first 2^k holders (by index offset from the owner) each forward one
   copy, prio = round. *)
let milp_tree_xfers members ~dim ~chunk ~owner_idx =
  let n = Array.length members in
  let rec rounds k acc =
    if 1 lsl k >= n then acc
    else
      let step = 1 lsl k in
      let acc =
        List.fold_left
          (fun acc i ->
            if i + step < n then
              {
                Syccl_sim.Schedule.chunk;
                src = members.((owner_idx + i) mod n);
                dst = members.((owner_idx + i + step) mod n);
                dim;
                prio = k;
              }
              :: acc
            else acc)
          acc
          (List.init step Fun.id)
      in
      rounds (k + 1) acc
  in
  List.rev (rounds 0 [])

(* Sub-demand spec for one group: [nchunks] chunks, chunk [c] owned by
   member [c mod n] and wanted by the other members, with staggered
   binomial trees as the MILP incumbent (the same greedy shape Subsolver
   feeds the refinement).  The coarse epoch knob and 4-GPU groups keep
   both engines inside their iteration budgets at every benchmarked
   scale. *)
let milp_group_spec topo ~dim ~group ~nchunks ~size =
  let members = T.gpus_in_group topo ~dim ~group in
  let n = Array.length members in
  let chunks =
    Array.init nchunks (fun c ->
        let o = c mod n in
        {
          Syccl_sim.Schedule.size;
          mode = `Gather;
          initial = [ members.(o) ];
          wanted =
            Array.to_list members |> List.filter (fun v -> v <> members.(o));
          tag = c;
        })
  in
  let link = (T.dim topo dim).T.link in
  let tau, _ = Syccl_teccl.Tau.select ~link ~size ~e:3.0 in
  let edges = EM.group_edges topo ~dim ~group in
  let xfers =
    List.concat
      (List.init nchunks (fun c ->
           milp_tree_xfers members ~dim ~chunk:c ~owner_idx:(c mod n)))
  in
  let incumbent = { Syccl_sim.Schedule.chunks; xfers } in
  let spec0 = { EM.topo; chunks; edges; tau; horizon = 0 } in
  match EM.replay { spec0 with horizon = max_int / 2 } incumbent with
  | Some h -> ({ spec0 with horizon = h }, incumbent)
  | None -> failwith "bench milp: tree incumbent does not replay"

let bench_milp () =
  Printf.printf
    "\n== bench milp: dense tableau vs revised sparse simplex ==\n";
  let module Milp = Syccl_milp.Milp in
  let module Cache = Syccl_util.Cache in
  let module Pool = Syccl_util.Pool in
  let module Json = Syccl_util.Json in
  let gpu_counts = if !full then [ 16; 32; 64 ] else [ 16; 32 ] in
  let size = 1.048576e6 in
  let nvlink = Link.make ~alpha:1.2e-6 ~gbps:200.0 in
  let net = Link.make ~alpha:6.0e-6 ~gbps:12.5 in
  Printf.printf "%5s %7s | %9s %9s %8s | %6s %10s %6s\n" "gpus" "groups"
    "dense_s" "revised_s" "speedup" "nodes" "warm-rate" "cert";
  let rows =
    List.map
      (fun gpus ->
        let topo =
          Builders.clos
            ~name:(Printf.sprintf "bench-milp-%d" gpus)
            ~levels:[ gpus / 4; 4 ] ~links:[ nvlink; net ] ()
        in
        let dim = 0 in
        let ngroups = T.groups_count topo ~dim in
        let specs =
          List.concat_map
            (fun group ->
              [
                milp_group_spec topo ~dim ~group ~nchunks:4 ~size;
                milp_group_spec topo ~dim ~group ~nchunks:2 ~size;
              ])
            (List.init ngroups Fun.id)
        in
        let solve_all engine ?pool ?cache () =
          List.map
            (fun (spec, inc) ->
              match
                EM.solve ~node_limit:10_000 ~time_limit:600.0 ~engine ?pool
                  ?cache ~cache_tag:"bench" ~incumbent:inc spec
              with
              | Some (_, epochs) -> epochs
              | None -> failwith "bench milp: solver returned no schedule")
            specs
        in
        let timed f =
          let t0 = Unix.gettimeofday () in
          let objs = f () in
          (objs, Unix.gettimeofday () -. t0)
        in
        let dense_objs, dense_s = timed (solve_all Milp.Dense) in
        let n0 = Counters.value "milp.nodes" in
        let wh0 = Counters.value "lp.warm_hits" in
        let wm0 = Counters.value "lp.warm_misses" in
        let fc0 = Counters.value "milp.flow_certified" in
        let cache = Cache.create ~capacity:64 ~name:"cache.bench_milp" () in
        let pool = Pool.get (min 4 (Pool.num_recommended ())) in
        let rev_objs, rev_s = timed (solve_all Milp.Revised ~pool ~cache) in
        if rev_objs <> dense_objs then
          failwith
            (Printf.sprintf
               "bench milp: engines disagree at %d GPUs (dense %s, revised \
                %s)"
               gpus
               (String.concat "," (List.map string_of_int dense_objs))
               (String.concat "," (List.map string_of_int rev_objs)));
        let nodes = Counters.value "milp.nodes" -. n0 in
        let warm_hits = Counters.value "lp.warm_hits" -. wh0 in
        let warm_misses = Counters.value "lp.warm_misses" -. wm0 in
        let certified = Counters.value "milp.flow_certified" -. fc0 in
        let warm_rate =
          let t = warm_hits +. warm_misses in
          if t <= 0.0 then 0.0 else warm_hits /. t
        in
        let speedup = if rev_s > 0.0 then dense_s /. rev_s else 0.0 in
        Printf.printf
          "%5d %7d | %9.3f %9.3f %7.1fx | %6.0f %9.0f%% %6.0f\n%!" gpus
          ngroups dense_s rev_s speedup nodes (100.0 *. warm_rate) certified;
        Json.Obj
          [
            ("gpus", Json.Num (float_of_int gpus));
            ("groups", Json.Num (float_of_int ngroups));
            ("models", Json.Num (float_of_int (List.length specs)));
            ("dense_s", Json.Num dense_s);
            ("revised_s", Json.Num rev_s);
            ("speedup", Json.Num speedup);
            ("nodes", Json.Num nodes);
            ("warm_hits", Json.Num warm_hits);
            ("warm_misses", Json.Num warm_misses);
            ("warm_hit_rate", Json.Num warm_rate);
            ("flow_certified", Json.Num certified);
            ("objectives_match", Json.Bool true);
          ])
      gpu_counts
  in
  let json =
    Json.Obj
      [
        ("schema_version", Json.Num 1.0);
        ("bench", Json.Str "milp");
        ("mode", Json.Str (if !full then "full" else "smoke"));
        ("chunk_bytes", Json.Num size);
        ("rows", Json.List rows);
      ]
  in
  write_bench_json "BENCH_milp.json" json

(* --- Fleet warming gate: registry hit rate on a cold production grid ---- *)

(* Warm one root-0 anchor per (family, collective, bucket) into a fresh
   registry, then serve each family's cold production grid — every request
   keyed apart from its anchor — and measure how much of it the registry's
   symmetry probes serve without another synthesis: other roots by
   stabilizer transport, adjacent buckets by rescaling.  Writes
   BENCH_fleet.json for `report --check --current=...` (the CI gate asserts
   >=90%) and fails in-process if any near-miss hit lacks its source-entry
   provenance in the audit trail. *)
let bench_fleet () =
  let module Registry = Syccl_serve.Registry in
  let module Serve = Syccl_serve.Serve in
  let module Fleet = Syccl_serve.Fleet in
  let module Audit = Syccl_serve.Audit in
  let module Json = Syccl_util.Json in
  let families, anchors =
    if !smoke then (Fleet.smoke_families, Fleet.smoke_anchors)
    else (Fleet.default_families, Fleet.default_anchors)
  in
  let collectives = Fleet.default_collectives in
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "syccl-bench-fleet-%d" (Unix.getpid ()))
  in
  let reg = Registry.open_dir dir in
  Fun.protect ~finally:(fun () -> Registry.destroy reg) @@ fun () ->
  let audit = Audit.for_registry reg in
  Printf.printf "\n== fleet: warm anchors, then serve a cold production grid ==\n%!";
  let w = Fleet.warm ~registry:reg ~audit ~families ~collectives ~anchors () in
  Printf.printf "   warmed %d anchors (%d stored, %d already hit, %d failed)\n%!"
    w.Fleet.anchors w.Fleet.stored w.Fleet.already_hit w.Fleet.failed;
  Printf.printf "%-16s | %8s %11s %12s %11s | %8s\n%!" "family" "requests"
    "transported" "cross-bucket" "synthesized" "hit-rate";
  let rows =
    List.map
      (fun family ->
        let grid = Fleet.production_grid ~family ~collectives ~anchors () in
        let outs = Serve.run_batch ~registry:reg ~audit grid in
        let transported = ref 0
        and crossed = ref 0
        and other = ref 0
        and synth = ref 0 in
        List.iter
          (fun (o : Serve.outcome) ->
            match o.Serve.source with
            | Serve.From_registry { via = Registry.Transported; _ } ->
                incr transported
            | Serve.From_registry { via = Registry.Scaled_cross; _ } ->
                incr crossed
            | Serve.From_registry _ -> incr other
            | Serve.From_synthesis -> incr synth)
          outs;
        let total = List.length grid in
        let rate =
          float_of_int (!transported + !crossed)
          /. float_of_int (max 1 total)
        in
        Printf.printf "%-16s | %8d %11d %12d %11d | %7.1f%%\n%!" family total
          !transported !crossed !synth (100.0 *. rate);
        Json.Obj
          [
            ("family", Json.Str family);
            ("requests", Json.Num (float_of_int total));
            ("transported", Json.Num (float_of_int !transported));
            ("scaled_cross", Json.Num (float_of_int !crossed));
            ("other_hits", Json.Num (float_of_int !other));
            ("synthesized", Json.Num (float_of_int !synth));
            ("hit_rate", Json.Num rate);
          ])
      families
  in
  (* Reuse provenance: every near-miss hit must name its source entry. *)
  let records, bad = Audit.read (Audit.path audit) in
  let unattributed =
    List.filter
      (fun (r : Audit.record) ->
        (r.Audit.probe = "hit.transported"
        || r.Audit.probe = "hit.scaled_cross")
        && r.Audit.hit_key = None)
      records
  in
  if bad > 0 then Printf.printf "   (audit: %d torn lines)\n" bad;
  if unattributed <> [] then begin
    Printf.printf "fleet: %d near-miss hit(s) lack source-entry provenance\n"
      (List.length unattributed);
    exit 1
  end;
  let json =
    Json.Obj
      [
        ("bench", Json.Str "fleet");
        ( "mode",
          Json.Str
            (if !smoke then "smoke" else if !full then "full" else "quick")
        );
        ("rows", Json.List rows);
      ]
  in
  write_bench_json "BENCH_fleet.json" json

(* --- A/B measurement helpers (`sim` and `hits` targets) ------------------ *)

(* Seconds per pass of [f] and of [g]: each the fastest of five alternating
   trials of at least 10 ms, so a slow spell of a shared host hits both
   sides and drops out. *)
let per_pass f =
  let t0 = Unix.gettimeofday () in
  let rec go k =
    f ();
    let dt = Unix.gettimeofday () -. t0 in
    if dt < 0.01 then go (k + 1) else dt /. float_of_int k
  in
  go 1

let fastest f g =
  let rec go trials (bf, bg) =
    if trials = 0 then (bf, bg)
    else go (trials - 1) (Float.min bf (per_pass f), Float.min bg (per_pass g))
  in
  go 5 (infinity, infinity)

(* Words allocated, minor heap plus direct major-heap allocations (large
   arrays).  Gc.minor_words is exact at any time; Gc.counters' major and
   promoted words move together at minor collections, so their difference
   counts only the direct major allocations. *)
let words f =
  let direct_major () =
    let _, promoted, major = Gc.counters () in
    major -. promoted
  in
  let minor0 = Gc.minor_words () and major0 = direct_major () in
  f ();
  Gc.minor_words () -. minor0 +. (direct_major () -. major0)

(* --- `sim` target: reference event loop vs the flat simulator kernel ----- *)

(* A/B of the retired record-and-hash event loop (Syccl_check.Sim_ref)
   against the production kernel (Sim.run) at 8 blocks, on the schedules a
   registry hit re-simulates and its fallback guard simulates: the
   synthesized a100-16 anchors (root 0) and their Fallback ladder
   schedules, for the four unrooted kinds plus Broadcast.  --smoke keeps
   the 1 MiB anchor only.  Each row records the summed block events, both
   kernels' seconds and allocated words per pass over the row's phases,
   and whether every report agreed bit for bit; the process fails on any
   disagreement.  Writes BENCH_sim.json for `report --check --current=...`. *)
let bench_sim () =
  let module Json = Syccl_util.Json in
  let module Sim_ref = Syccl_check.Sim_ref in
  let module Fallback = Syccl_baselines.Fallback in
  Printf.printf "\n== bench sim: reference event loop vs flat kernel ==\n";
  let topo = Syccl_serve.Request.topo_of_name "a100-16" in
  let n = T.num_gpus topo in
  let sizes =
    if !smoke then [ 1.048576e6 ] else Syccl_serve.Fleet.default_anchors
  in
  let kinds = [ C.AllGather; C.ReduceScatter; C.AllToAll; C.AllReduce; C.Broadcast ] in
  let config = { Synth.default_config with Synth.domains = 1 } in
  let blocks = 8 in
  Printf.printf "%-13s %5s %-8s | %7s | %9s %9s %8s | %9s %9s\n" "kind" "size"
    "source" "events" "ref_s" "sim_s" "speedup" "ref_words" "sim_words";
  let rows =
    List.concat_map
      (fun size ->
        List.concat_map
          (fun kind ->
            let coll = C.make ~root:0 kind ~n ~size in
            let anchor = (Synth.synthesize ~config topo coll).Synth.schedules in
            List.map
              (fun (source, phases) ->
                let pass run () = List.iter (fun s -> ignore (run s)) phases in
                let ref_run s = Sim_ref.run ~blocks topo s
                and sim_run s = Sim.run ~blocks topo s in
                let reports_match =
                  List.for_all
                    (fun s -> Sim_ref.identical (sim_run s) (ref_run s))
                    phases
                in
                if not reports_match then begin
                  Printf.printf
                    "bench sim: kernels disagree on %s %s (%s)\n"
                    (C.kind_name kind) (pp_size size) source;
                  exit 1
                end;
                let events =
                  List.fold_left (fun a s -> a + (sim_run s).Sim.events) 0 phases
                in
                let ref_s, sim_s = fastest (pass ref_run) (pass sim_run) in
                let ref_words = words (pass ref_run) and sim_words = words (pass sim_run) in
                let speedup = if sim_s > 0.0 then ref_s /. sim_s else 0.0 in
                Printf.printf "%-13s %5s %-8s | %7d | %9.2e %9.2e %7.2fx | %9.0f %9.0f\n%!"
                  (C.kind_name kind) (pp_size size) source events ref_s sim_s
                  speedup ref_words sim_words;
                Json.Obj
                  [
                    ("kind", Json.Str (C.kind_name kind));
                    ("size", Json.Num size);
                    ("source", Json.Str source);
                    ("phases", Json.Num (float_of_int (List.length phases)));
                    ("events", Json.Num (float_of_int events));
                    ("ref_s", Json.Num ref_s);
                    ("sim_s", Json.Num sim_s);
                    ("speedup", Json.Num speedup);
                    ("ref_alloc_words", Json.Num ref_words);
                    ("sim_alloc_words", Json.Num sim_words);
                    ("reports_match", Json.Bool reports_match);
                  ])
              [ ("anchor", anchor); ("fallback", Fallback.schedule topo coll) ])
          kinds)
      sizes
  in
  let json =
    Json.Obj
      [
        ("schema_version", Json.Num 1.0);
        ("bench", Json.Str "sim");
        ("mode", Json.Str (if !smoke then "smoke" else "full"));
        ("topology", Json.Str "a100-16");
        ("blocks", Json.Num (float_of_int blocks));
        ("rows", Json.List rows);
      ]
  in
  write_bench_json "BENCH_sim.json" json

(* --- `hits` target: cold registry probe vs memoized probe ---------------- *)

(* A/B of a cold registry probe (read, parse, validate, simulate, and the
   fallback guard on a near-miss) against the same probe replayed from the
   in-process probe memo.  The a100-16 anchors' fallback schedules are
   stored as root-0 entries at 8 blocks — cheap, no synthesis — and for
   every (kind, anchor size) the bench probes an exact, an in-bucket
   rescaled (x1.5), a cross-bucket (x2) and, for Broadcast, a transported
   request (root 3: the fallback ladder beats a transported root-0
   fallback at roots 1 and 2, so those would be misses): cold first (the
   memo reset before every cold probe),
   then memoized.  --smoke keeps the 1 MiB anchor only.  Each row records
   the verdict, whether the cold and memoized verdicts agree bit for bit
   (the process fails if not), both probes' seconds and allocated words,
   and the speedup.  Writes BENCH_hits.json for
   `report --check --current=...`. *)
let bench_hits () =
  let module Json = Syccl_util.Json in
  let module Registry = Syccl_serve.Registry in
  let module Fallback = Syccl_baselines.Fallback in
  Printf.printf "\n== bench hits: cold probe vs memoized probe ==\n";
  let topo = Syccl_serve.Request.topo_of_name "a100-16" in
  let n = T.num_gpus topo in
  let sizes =
    if !smoke then [ 1.048576e6 ] else Syccl_serve.Fleet.default_anchors
  in
  let kinds = [ C.AllGather; C.ReduceScatter; C.AllToAll; C.AllReduce; C.Broadcast ] in
  let blocks = 8 in
  let reg =
    Registry.open_dir
      (Filename.concat (Filename.get_temp_dir_name ())
         (Printf.sprintf "syccl-bench-hits-%d" (Unix.getpid ())))
  in
  List.iter
    (fun size ->
      List.iter
        (fun kind ->
          let coll = C.make ~root:0 kind ~n ~size in
          let schedules = Fallback.schedule topo coll in
          Registry.store reg topo coll ~blocks
            ~cost:(Sim.phases_time ~blocks topo schedules)
            ~chosen:"fallback" schedules)
        kinds)
    sizes;
  (* Everything a probe result says, times as hex floats: equal strings
     plus equal schedules is bit-identity. *)
  let verdict = function
    | Registry.Miss r -> "miss." ^ Registry.miss_reason_name r
    | Registry.Hit h ->
        Printf.sprintf "hit.%s %s time=%h stored=%h/%d %s"
          (Registry.via_name h.Registry.via) h.Registry.hit_key h.Registry.time
          h.Registry.stored_cost h.Registry.stored_blocks h.Registry.chosen
  in
  let schedules = function
    | Registry.Hit h -> h.Registry.schedules
    | Registry.Miss _ -> []
  in
  Printf.printf "%-13s %5s %-11s | %-18s | %9s %9s %8s | %9s %9s\n" "kind"
    "size" "request" "verdict" "cold_s" "memo_s" "speedup" "cold_words"
    "memo_words";
  let rows =
    List.concat_map
      (fun size ->
        List.concat_map
          (fun kind ->
            let at ?(root = 0) f = C.make ~root kind ~n ~size:(size *. f) in
            let requests =
              [ ("exact", at 1.0); ("rescaled", at 1.5); ("cross", at 2.0) ]
              @ if kind = C.Broadcast then [ ("transported", at ~root:3 1.0) ]
                else []
            in
            List.map
              (fun (request, c) ->
                let cold () =
                  Registry.reset_memo ();
                  Registry.probe reg ~blocks topo c
                and memo () = Registry.probe reg ~blocks topo c in
                let v_cold = cold () in
                let v_memo = memo () in
                let verdicts_match =
                  verdict v_cold = verdict v_memo
                  && schedules v_cold = schedules v_memo
                in
                if not verdicts_match then begin
                  Printf.printf
                    "bench hits: memoized verdict differs on %s %s %s: %s vs %s\n"
                    (C.kind_name kind) (pp_size size) request (verdict v_cold)
                    (verdict v_memo);
                  exit 1
                end;
                let cold_s, memo_s =
                  fastest (fun () -> ignore (cold ())) (fun () -> ignore (memo ()))
                in
                let cold_words = words (fun () -> ignore (cold ())) in
                ignore (memo ());
                let memo_words = words (fun () -> ignore (memo ())) in
                let speedup = if memo_s > 0.0 then cold_s /. memo_s else 0.0 in
                let short = List.hd (String.split_on_char ' ' (verdict v_cold)) in
                Printf.printf
                  "%-13s %5s %-11s | %-18s | %9.2e %9.2e %7.1fx | %9.0f %9.0f\n%!"
                  (C.kind_name kind) (pp_size size) request short cold_s memo_s
                  speedup cold_words memo_words;
                Json.Obj
                  [
                    ("kind", Json.Str (C.kind_name kind));
                    ("size", Json.Num size);
                    ("request", Json.Str request);
                    ("verdict", Json.Str (verdict v_cold));
                    ("verdicts_match", Json.Bool verdicts_match);
                    ("cold_s", Json.Num cold_s);
                    ("memo_s", Json.Num memo_s);
                    ("speedup", Json.Num speedup);
                    ("cold_alloc_words", Json.Num cold_words);
                    ("memo_alloc_words", Json.Num memo_words);
                  ])
              requests)
          kinds)
      sizes
  in
  Registry.destroy reg;
  write_bench_json "BENCH_hits.json"
    (Json.Obj
       [
         ("schema_version", Json.Num 1.0);
         ("bench", Json.Str "hits");
         ("mode", Json.Str (if !smoke then "smoke" else "full"));
         ("topology", Json.Str "a100-16");
         ("blocks", Json.Num (float_of_int blocks));
         ("rows", Json.List rows);
       ])

(* --- Bench observatory: regression report over BENCH_*.json ------------- *)

(* Regression gates over the BENCH_*.json files, exiting non-zero on a
   regression.  The gate is chosen by the "bench" field of --current
   (default BENCH_milp.json): the fleet hit rate ("fleet"), or the
   simulator kernels ("sim"), the probe memo ("hits") or MILP engines
   ("milp") against --baseline.
   Absolute timings are machine-dependent, so the gates are ratio- and
   count-based.  --check makes an unusable comparison (missing file,
   missing or unknown "bench" field, zero matched rows) itself a failure,
   so the CI gate can never pass vacuously. *)
let bench_report () =
  let module Json = Syccl_util.Json in
  let read path =
    if not (Sys.file_exists path) then None
    else begin
      let ic = open_in path in
      let text = really_input_string ic (in_channel_length ic) in
      close_in ic;
      Some (Json.of_string text)
    end
  in
  let rows = function
    | Some (Json.Obj kvs) -> (
        match List.assoc_opt "rows" kvs with Some (Json.List l) -> l | _ -> [])
    | _ -> []
  in
  let field row k =
    match row with Json.Obj kvs -> List.assoc_opt k kvs | _ -> None
  in
  let num row k = match field row k with Some (Json.Num v) -> v | _ -> nan in
  let str row k = match field row k with Some (Json.Str v) -> v | _ -> "?" in
  let current = !report_current in
  let unusable fmt =
    Printf.ksprintf
      (fun m ->
        Printf.printf "report: %s\n" m;
        if !report_check then exit 1)
      fmt
  in
  (* Compare [current] against --baseline row by row, matched on [key];
     [judge baseline_row current_row] gives the row's printed figures and
     its problems.  Exits non-zero on any problem or on a baseline row
     missing from the current run; --check also fails a missing baseline
     or zero matched rows, so the gate can never pass vacuously. *)
  let gate_rows cur ~key ~judge =
    let base = read !report_baseline in
    Printf.printf "\n== bench report: %s vs baseline %s (threshold %.1fx) ==\n"
      current !report_baseline !report_threshold;
    if base = None then unusable "missing %s" !report_baseline;
    let find row l = List.find_opt (fun r -> key r = key row) l in
    let regressions = ref 0 and matched = ref 0 in
    List.iter
      (fun crow ->
        match find crow (rows base) with
        | None -> Printf.printf "%-30s | new row (no baseline)\n" (key crow)
        | Some brow ->
            incr matched;
            let figures, problems = judge brow crow in
            if problems <> [] then incr regressions;
            Printf.printf "%-30s | %s | %s\n" (key crow) figures
              (if problems = [] then "ok" else String.concat "," problems))
      (rows cur);
    List.iter
      (fun brow ->
        if find brow (rows cur) = None then begin
          incr regressions;
          Printf.printf "%-30s | row missing from current run\n" (key brow)
        end)
      (rows base);
    if !report_check && !matched = 0 then begin
      Printf.printf "report: no comparable rows — gate is vacuous\n";
      exit 1
    end;
    if !regressions > 0 then begin
      Printf.printf "report: %d regressed row(s)\n" !regressions;
      exit 1
    end
    else Printf.printf "report: no regressions (%d rows compared)\n" !matched
  in
  let cur = read current in
  match Option.bind cur (fun j -> field j "bench") with
  | Some (Json.Str "fleet") ->
      (* Fleet registry hit-rate gate: every family warmed by
         `fleet` must reach >=90% transported + cross-bucket hits on its
         cold production grid.  --check keeps the gate non-vacuous: an
         empty row set fails outright. *)
      Printf.printf "\n== bench report: fleet registry hit-rate gate (%s) ==\n"
        current;
      let frows = rows cur in
      if frows = [] && !report_check then begin
        Printf.printf "report: no fleet rows — gate is vacuous\n";
        exit 1
      end;
      let below = ref 0 in
      Printf.printf "%-16s | %8s %8s | %s\n" "family" "requests" "hit-rate"
        "verdict";
      List.iter
        (fun row ->
          let rate = num row "hit_rate" in
          let ok = rate >= 0.9 in
          if not ok then incr below;
          Printf.printf "%-16s | %8.0f %7.1f%% | %s\n" (str row "family")
            (num row "requests") (100.0 *. rate)
            (if ok then "ok" else "below 90% gate"))
        frows;
      if !below > 0 then begin
        Printf.printf "report: %d family(ies) below the hit-rate gate\n"
          !below;
        exit 1
      end
      else
        Printf.printf "report: fleet gate ok (%d families)\n"
          (List.length frows)
  | Some (Json.Str "sim") ->
      (* Simulator kernel gate: rows are matched on (kind, size, source).
         A row regresses when the two kernels stopped agreeing bit for bit,
         its block-event count moved (the schedules or the kernel's event
         accounting changed), or its speedup over the reference loop fell
         below baseline/threshold. *)
      gate_rows cur
        ~key:(fun row ->
          Printf.sprintf "%s/%.0f/%s" (str row "kind") (num row "size")
            (str row "source"))
        ~judge:(fun brow crow ->
          let bs = num brow "speedup" and cs = num crow "speedup" in
          ( Printf.sprintf "%6.0f events, speedup %5.2fx (baseline %5.2fx)"
              (num crow "events") cs bs,
            (if field crow "reports_match" = Some (Json.Bool true) then []
             else [ "reports-mismatch" ])
            @ (if num crow "events" = num brow "events" then []
               else [ "events-changed" ])
            @ if cs *. !report_threshold >= bs then []
              else [ "speedup-regression" ] ))
  | Some (Json.Str "hits") ->
      (* Probe memo gate: rows are matched on (kind, size, request).  A row
         regresses when the memoized verdict stopped agreeing bit for bit
         with the cold one, the verdict itself changed, a memoized probe
         allocates more than twice the baseline's words, or the speedup
         over a cold probe fell below baseline/threshold. *)
      gate_rows cur
        ~key:(fun row ->
          Printf.sprintf "%s/%.0f/%s" (str row "kind") (num row "size")
            (str row "request"))
        ~judge:(fun brow crow ->
          let bs = num brow "speedup" and cs = num crow "speedup" in
          let bw = num brow "memo_alloc_words" and cw = num crow "memo_alloc_words" in
          ( Printf.sprintf "%6.0f memo words (baseline %6.0f), speedup %6.1fx (baseline %6.1fx)"
              cw bw cs bs,
            (if field crow "verdicts_match" = Some (Json.Bool true) then []
             else [ "verdicts-mismatch" ])
            @ (if str crow "verdict" = str brow "verdict" then []
               else [ "verdict-changed" ])
            @ (if cw <= 2.0 *. bw then [] else [ "memo-words-regression" ])
            @ if cs *. !report_threshold >= bs then []
              else [ "speedup-regression" ] ))
  | Some (Json.Str "milp") ->
      (* Solver gate: rows are matched on GPU count.  A row regresses when
         its revised-vs-dense speedup falls below baseline/threshold, its
         warm-start hit rate collapses (more than 25 points below
         baseline), or the engines stopped agreeing on objectives. *)
      gate_rows cur
        ~key:(fun row -> Printf.sprintf "%.0f gpus" (num row "gpus"))
        ~judge:(fun brow crow ->
          let bs = num brow "speedup" and cs = num crow "speedup" in
          ( Printf.sprintf "speedup %5.1fx (baseline %5.1fx)" cs bs,
            (if field crow "objectives_match" = Some (Json.Bool true) then []
             else [ "objectives-mismatch" ])
            @ (if num crow "warm_hit_rate" >= num brow "warm_hit_rate" -. 0.25
               then []
               else [ "warm-rate-collapse" ])
            @ if cs *. !report_threshold >= bs then []
              else [ "speedup-regression" ] ))
  | _ when cur = None -> unusable "missing %s" current
  | _ ->
      unusable "%s has no known \"bench\" field (milp, sim, hits or fleet)"
        current

(* --- Trace emission (--trace=FILE) -------------------------------------- *)

(* Record the bench run, then append a small traced 8-GPU AllGather
   simulation (so the export always contains simulator timeline tracks),
   write Chrome trace-event JSON and fail the process if the file does not
   round-trip through the JSON parser with both synthesis spans and sim
   events present.  `dune runtest` drives this to catch trace-format
   regressions. *)
let emit_and_check_trace path =
  let module Trace = Syccl_util.Trace in
  let module Json = Syccl_util.Json in
  let topo = Builders.h800_scaled ~servers:1 ~gpus_per_server:8 in
  let coll = C.make C.AllGather ~n:8 ~size:1.048576e6 in
  let o = Synth.synthesize ~config:syccl_cfg topo coll in
  Trace.set_process_name ~pid:Trace.synthesis_pid "synthesis";
  List.iteri
    (fun i s ->
      let pid = Trace.sim_pid + i in
      Trace.set_process_name ~pid (Printf.sprintf "sim phase %d" i);
      ignore (Sim.run ~trace_pid:pid topo s))
    o.Synth.schedules;
  Trace.disable ();
  Trace.export_file path;
  let ic = open_in path in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let evs =
    match Json.of_string text with
    | Json.Obj kvs -> (
        match List.assoc_opt "traceEvents" kvs with
        | Some (Json.List l) -> l
        | _ -> failwith "trace check: no traceEvents array")
    | _ -> failwith "trace check: not a JSON object"
  in
  let is_span p e =
    match e with
    | Json.Obj kvs ->
        List.assoc_opt "ph" kvs = Some (Json.Str "X")
        && (match List.assoc_opt "pid" kvs with
           | Some (Json.Num v) -> int_of_float v = p
           | _ -> false)
    | _ -> false
  in
  if evs = [] then failwith "trace check: empty traceEvents";
  if not (List.exists (is_span Trace.synthesis_pid) evs) then
    failwith "trace check: no synthesis spans";
  if not (List.exists (is_span Trace.sim_pid) evs) then
    failwith "trace check: no simulator timeline events";
  Printf.printf "\ntrace: wrote %s (%d events, round-trip OK)\n%!" path
    (List.length evs)

(* --- Driver ------------------------------------------------------------- *)

let targets =
  [
    ("fig14a", fig14a); ("fig14b", fig14b); ("fig14c", fig14c); ("fig14d", fig14d);
    ("fig15a", fig15a); ("fig15b", fig15b); ("fig15c", fig15c);
    ("fig16a", fig16a); ("fig16b", fig16b); ("fig16c", fig16c);
    ("tab5", tab5); ("fig17a", fig17a); ("fig17b", fig17b); ("fig17c", fig17c);
    ("tab6", tab6); ("fig21a", fig21a); ("fig21b", fig21b); ("fig22a", fig22a);
    ("milp", bench_milp);
    ("fleet", bench_fleet);
    ("sim", bench_sim);
    ("hits", bench_hits);
    ("report", bench_report);
  ]

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let flags, names = List.partition (fun a -> String.length a > 0 && a.[0] = '-') args in
  if List.mem "--full" flags then full := true;
  if List.mem "--smoke" flags then smoke := true;
  if List.mem "--check" flags then report_check := true;
  let keyed prefix =
    List.find_map
      (fun f ->
        let n = String.length prefix in
        if String.length f > n && String.sub f 0 n = prefix then
          Some (String.sub f n (String.length f - n))
        else None)
      flags
  in
  Option.iter (fun v -> report_baseline := v) (keyed "--baseline=");
  Option.iter (fun v -> report_current := v) (keyed "--current=");
  Option.iter
    (fun v -> report_threshold := float_of_string v)
    (keyed "--threshold=");
  let trace_out =
    List.find_map
      (fun f ->
        if String.length f > 8 && String.sub f 0 8 = "--trace=" then
          Some (String.sub f 8 (String.length f - 8))
        else None)
      flags
  in
  if trace_out <> None then Syccl_util.Trace.enable ();
  let chosen =
    if names = [] then targets
    else
      List.map
        (fun n ->
          match List.assoc_opt n targets with
          | Some f -> (n, f)
          | None ->
              Printf.eprintf "unknown target %s; available: %s\n" n
                (String.concat " " (List.map fst targets));
              exit 1)
        names
  in
  let t0 = Unix.gettimeofday () in
  List.iter (fun (_, f) -> f ()) chosen;
  if List.mem "--micro" flags then micro ();
  Option.iter emit_and_check_trace trace_out;
  Printf.printf "\nbench completed in %.1fs\n" (Unix.gettimeofday () -. t0)
