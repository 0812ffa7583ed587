(* Tests for the human-readable sketch/combination reports (Appendix C). *)

module Builders = Syccl_topology.Builders
module C = Syccl_collective.Collective

let contains = Astring_replacement.contains

let test_sketch_report () =
  let topo = Builders.fig3 () in
  match Syccl.Search.run topo ~kind:`Broadcast ~root:0 with
  | [] -> Alcotest.fail "sketches found"
  | s :: _ ->
      let text = Syccl.Explain.sketch topo s in
      Alcotest.(check bool) "names the root" true (contains text "rooted at GPU 0");
      Alcotest.(check bool) "uses the R_{k,d,g} notation" true (contains text "R_{0,");
      Alcotest.(check bool) "summarizes workload" true
        (contains text "per-dimension workload")

let test_combo_report () =
  let topo = Builders.h800 ~servers:2 in
  let sketches = Syccl.Search.run topo ~kind:`Broadcast ~root:0 in
  let sketches = List.filteri (fun i _ -> i < 4) sketches in
  match Syccl.Combine.combos_all_to_all topo sketches with
  | [] -> Alcotest.fail "combos"
  | c :: _ ->
      let text = Syccl.Explain.combo topo c in
      Alcotest.(check bool) "states sketch/root counts" true
        (contains text "sketches over 16 roots");
      Alcotest.(check bool) "compares traffic to bandwidth" true
        (contains text "of bandwidth")

let test_outcome_report () =
  let topo = Builders.a100 ~servers:2 in
  let coll = C.make C.AllGather ~n:16 ~size:1e6 in
  let cfg = { Syccl.Synthesizer.default_config with fast_only = true } in
  let o = Syccl.Synthesizer.synthesize ~config:cfg topo coll in
  let text = Syccl.Explain.outcome topo o in
  Alcotest.(check bool) "has winner" true (contains text "winner:");
  Alcotest.(check bool) "has busbw" true (contains text "GBps busbw");
  Alcotest.(check bool) "has breakdown" true (contains text "coarse solve")

let test_bottleneck_flag () =
  (* A spine-only combination on a multirail topology must be flagged. *)
  let topo = Builders.fig19 () in
  let n = 28 in
  let stage_of = Array.make n 0 and parent = Array.make n 0 and dim_of = Array.make n 2 in
  stage_of.(0) <- -1;
  parent.(0) <- -1;
  dim_of.(0) <- -1;
  let s = Syccl.Sketch.make ~root:0 ~kind:`Broadcast ~num_stages:1 ~stage_of ~parent ~dim_of in
  let combo = { Syccl.Combine.sketches = [ (s, 1.0) ]; desc = "spine-only" } in
  Alcotest.(check bool) "bottleneck flagged" true
    (contains (Syccl.Explain.combo topo combo) "likely bottleneck")

let test_outcome_degraded () =
  (* The ladder line must name the rung and carry the degradation reason,
     and a provenance line must appear iff one is passed. *)
  let topo = Builders.fig3 () in
  let coll = C.make C.AllGather ~n:16 ~size:65536.0 in
  let cfg = { Syccl.Synthesizer.default_config with fast_only = true } in
  let o = Syccl.Synthesizer.synthesize ~config:cfg topo coll in
  let full = Syccl.Explain.outcome topo o in
  Alcotest.(check bool) "full rung named" true (contains full "ladder: full rung");
  Alcotest.(check bool) "no provenance unless passed" false
    (contains full "provenance:");
  let fast =
    Syccl.Explain.outcome topo
      { o with
        Syccl.Synthesizer.degraded = Syccl.Synthesizer.Fast;
        degrade_reason = Some "deadline";
      }
  in
  Alcotest.(check bool) "fast rung named" true (contains fast "ladder: fast rung");
  Alcotest.(check bool) "fast reason shown" true
    (contains fast "(degraded: deadline)");
  let fallback =
    Syccl.Explain.outcome ~provenance:"registry entry k0 in /tmp/reg" topo
      { o with
        Syccl.Synthesizer.degraded = Syccl.Synthesizer.Fallback;
        degrade_reason = Some "budget exhausted";
      }
  in
  Alcotest.(check bool) "fallback rung named" true
    (contains fallback "ladder: fallback rung");
  Alcotest.(check bool) "fallback reason shown" true
    (contains fallback "(degraded: budget exhausted)");
  Alcotest.(check bool) "provenance line rendered" true
    (contains fallback "provenance: registry entry k0 in /tmp/reg")

let test_analysis_multirail () =
  (* A ring AllGather on a 2x2 multirail box: the report's critical path
     must name a bottleneck port with a sane utilization, and the per-dim
     alpha/beta split must be consistent with Analysis itself. *)
  let module Analysis = Syccl_sim.Analysis in
  let topo = Builders.h800_scaled ~servers:2 ~gpus_per_server:2 in
  (* 256 MB: large enough that every ring transfer is bandwidth-bound. *)
  let coll = C.make C.AllGather ~n:4 ~size:268435456.0 in
  let s = Syccl_baselines.Ring.allgather topo coll in
  let a = Analysis.analyze topo s in
  (match a.Analysis.bottleneck with
  | None -> Alcotest.fail "ring schedule must have an active bottleneck port"
  | Some p ->
      Alcotest.(check bool) "bottleneck busy time positive" true
        (p.Analysis.busy > 0.0);
      Alcotest.(check bool) "bottleneck utilization in (0,1]" true
        (p.Analysis.utilization > 0.0 && p.Analysis.utilization <= 1.0 +. 1e-9));
  let nd = Array.length a.Analysis.dim_bytes in
  Alcotest.(check bool) "has both dims" true (nd >= 2);
  for d = 0 to nd - 1 do
    let sh = Analysis.alpha_share a d in
    Alcotest.(check bool) "alpha share in [0,1]" true (sh >= 0.0 && sh <= 1.0);
    if a.Analysis.dim_bytes.(d) > 0.0 then begin
      Alcotest.(check bool) "active dim has wire time" true
        (a.Analysis.dim_alpha_s.(d) +. a.Analysis.dim_beta_s.(d) > 0.0);
      (* 1 MB transfers over these links are bandwidth-dominated. *)
      Alcotest.(check bool) "large transfers are beta-bound" true (sh < 0.5)
    end
    else
      Alcotest.(check (float 0.0)) "idle dim has zero alpha share" 0.0 sh
  done;
  (* The rendered report agrees: bottleneck marker, utilization column and
     the alpha/beta line all present. *)
  let o =
    {
      Syccl.Synthesizer.schedules = [ s ];
      time = a.Analysis.makespan;
      busbw = C.busbw coll ~time:a.Analysis.makespan;
      synth_time = 0.0;
      breakdown = Syccl.Synthesizer.zero_breakdown;
      num_sketches = 0;
      num_combos = 0;
      chosen = "ring baseline";
      degraded = Syccl.Synthesizer.Full;
      degrade_reason = None;
    }
  in
  let text = Syccl.Explain.outcome topo o in
  Alcotest.(check bool) "report marks the bottleneck port" true
    (contains text "<- bottleneck");
  Alcotest.(check bool) "report shows utilization" true
    (contains text "% utilized");
  Alcotest.(check bool) "report splits alpha vs beta" true
    (contains text "% of wire time")

let suite =
  [
    ("sketch report", `Quick, test_sketch_report);
    ("combo report", `Quick, test_combo_report);
    ("outcome report", `Quick, test_outcome_report);
    ("bottleneck flag", `Quick, test_bottleneck_flag);
    ("outcome degraded rungs", `Quick, test_outcome_degraded);
    ("analysis multirail", `Quick, test_analysis_multirail);
  ]
