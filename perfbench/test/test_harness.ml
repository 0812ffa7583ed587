(* Self-tests of the benchmark harness: the tail rule, span self-time
   arithmetic, seeded request lists, and the synth_cold grid's promise that
   every request is a cold miss. *)

module H = Perfbench.Harness
module Registry = Syccl_serve.Registry
module Request = Syccl_serve.Request

let floats n = List.init n (fun i -> float_of_int (i + 1))

(* The value is the Harrell-Davis estimate, which on 1..n lies within one
   rank of the nearest-rank order statistic. *)
let check_tail ~n ~p ~beyond () =
  let t = H.tail (floats n) in
  Alcotest.(check (float 1e-12)) "percentile" p t.H.p;
  Alcotest.(check int) "samples beyond" beyond t.H.beyond;
  Alcotest.(check (float 1.0)) "value" (float_of_int (n - beyond)) t.H.value

(* At every size the chosen percentile keeps at least ten samples beyond
   it, and the next rung of the ladder would not. *)
let tail_is_highest () =
  List.iter
    (fun n ->
      let t = H.tail (floats n) in
      Alcotest.(check bool) (Printf.sprintf "n=%d keeps ten" n) true (t.H.beyond >= 10);
      match List.find_opt (fun p -> p > t.H.p) H.tail_ladder with
      | None -> ()
      | Some next ->
          let r = H.rank ~n next in
          Alcotest.(check bool) (Printf.sprintf "n=%d next rung" n) true (n - r < 10))
    [ 20; 32; 96; 138; 500; 1000; 1260; 1380; 2000; 5000; 30000 ]

let tail_too_few () =
  let t = H.tail (floats 5) in
  Alcotest.(check (float 1e-12)) "falls back to the median" 0.5 t.H.p;
  Alcotest.(check int) "beyond" 2 t.H.beyond

let hd_constant () =
  List.iter
    (fun q -> Alcotest.(check (float 1e-12)) "constant" 7.5 (H.quantile (List.init 32 (fun _ -> 7.5)) q))
    [ 0.5; 0.68; 0.99 ]

(* Symmetric weights: the median of 1..n is (n+1)/2, for odd and even n. *)
let hd_symmetric () =
  List.iter
    (fun n ->
      Alcotest.(check (float 1e-9)) (Printf.sprintf "n=%d" n)
        (float_of_int (n + 1) /. 2.0) (H.quantile (floats n) 0.5))
    [ 1; 2; 3; 32; 33; 1404 ]

(* A run of 32 with a 30% gap at the median: the order statistic sits on
   one side of the gap, the estimate between the two sides. *)
let hd_gap () =
  let xs = List.init 16 (fun i -> 1.0 +. (0.01 *. float_of_int i))
           @ List.init 16 (fun i -> 1.3 +. (0.01 *. float_of_int i)) in
  let m = H.quantile xs 0.5 in
  Alcotest.(check (float 1e-12)) "order statistic" 1.15 (H.median xs);
  Alcotest.(check bool) "between the sides" true (m > 1.15 && m < 1.3);
  Alcotest.(check bool) "increasing in q" true (H.quantile xs 0.4 < m && m < H.quantile xs 0.6)

let span ?(track = (1, 0)) ?(bench = false) ?(part = false) name ts dur =
  { H.name; track; ts; dur; bench; part }

let self_of spans name =
  List.assoc name (List.map (fun ((s : H.span), self) -> (s.H.name, self)) (H.self_times spans))

let nested_self () =
  let spans =
    [
      span "b" 5.0 4.0;
      span "parent" 0.0 10.0;
      span "a" 1.0 3.0;
      span "grandchild" 6.0 1.0;
      span "after" 10.0 2.0;
      span ~track:(1, 1) "other-track" 2.0 5.0;
    ]
  in
  let self = self_of spans in
  Alcotest.(check (float 1e-9)) "parent" 3.0 (self "parent");
  Alcotest.(check (float 1e-9)) "a" 3.0 (self "a");
  Alcotest.(check (float 1e-9)) "b" 3.0 (self "b");
  Alcotest.(check (float 1e-9)) "grandchild" 1.0 (self "grandchild");
  Alcotest.(check (float 1e-9)) "sibling after the parent" 2.0 (self "after");
  Alcotest.(check (float 1e-9)) "other track" 5.0 (self "other-track")

(* A child that starts exactly where its parent starts, and one whose end
   overshoots the parent's by rounding, are still children. *)
let edge_self () =
  let spans = [ span "p" 1.0 2.0; span "c" 1.0 1.0; span "d" 2.0 (1.0 +. 1e-12) ] in
  let self = self_of spans in
  Alcotest.(check (float 1e-9)) "parent" 0.0 (self "p");
  Alcotest.(check (float 1e-9)) "first child" 1.0 (self "c")

let reduce_layers () =
  let spans =
    [
      span ~bench:true H.request_span 0.0 10.0;
      span "synthesize" 1.0 8.0;
      span "milp.solve" 2.0 3.0;
      span "mystery.span" 9.5 0.25;
      span ~bench:true ~part:true "registry.store_s" 10.0 1.0;
      span ~bench:true "sim.resim_s" 11.0 0.5;
    ]
  in
  let r = H.reduce spans in
  let layer n = List.assoc n r.H.layers in
  Alcotest.(check (float 1e-9)) "synthesizer self" 5.0 (layer "synthesizer.self_s");
  Alcotest.(check (float 1e-9)) "milp self" 3.0 (layer "milp.self_s");
  Alcotest.(check (float 1e-9)) "store" 1.0 (layer "registry.store_s");
  Alcotest.(check (float 1e-9)) "resim" 0.5 (layer "sim.resim_s");
  Alcotest.(check (float 1e-9)) "request" 10.0 r.H.request_s;
  (* request self 10 - 8 - 0.25 = 1.75, minus the store it made (1.0),
     plus the unknown span's 0.25 *)
  Alcotest.(check (float 1e-9)) "unattributed" 1.0 r.H.unattributed_s

let signature (it : H.item) =
  Printf.sprintf "%s/%s/%d/%d" (Request.key it.H.req) it.H.cls it.H.channels it.H.pass

let same_seed_same_list () =
  List.iter
    (fun (name, w) ->
      let a = List.map signature (H.requests w ~seed:7 ~seconds:30.0) in
      let b = List.map signature (H.requests w ~seed:7 ~seconds:30.0) in
      let c = List.map signature (H.requests w ~seed:8 ~seconds:30.0) in
      Alcotest.(check (list string)) (name ^ ": same seed") a b;
      Alcotest.(check bool) (name ^ ": another seed reorders") true (a <> c))
    H.workloads

(* Seeds change order and transported roots, never the class quotas. *)
let quotas_fixed () =
  List.iter
    (fun (name, w) ->
      let quota seed =
        List.sort compare
          (List.map
             (fun (it : H.item) ->
               Printf.sprintf "%s/%s/%s/%d" it.H.family it.H.collective it.H.cls it.H.channels)
             (H.requests w ~seed ~seconds:30.0))
      in
      Alcotest.(check (list string)) (name ^ ": quotas") (quota 1) (quota 2))
    H.workloads

(* The serve streams ask for the unrooted kinds equally often (so
   AllGather and ReduceScatter 1:1, as in the traces), and for a rooted
   kind only where one is needed, at a transported root. *)
let serve_mix () =
  List.iter
    (fun w ->
      let items = H.requests w ~seed:5 ~seconds:30.0 in
      let count c =
        List.length (List.filter (fun (it : H.item) -> it.H.collective = c) items)
      in
      Alcotest.(check int) "AllGather = ReduceScatter" (count "allgather")
        (count "reducescatter");
      List.iter
        (fun c ->
          Alcotest.(check int) (c ^ " as often as AllGather") (count "allgather") (count c))
        H.serve_collectives;
      List.iter
        (fun (it : H.item) ->
          if not (List.mem it.H.collective H.serve_collectives) then begin
            Alcotest.(check string) "other kinds only transported" "transported" it.H.cls;
            Alcotest.(check bool) "at a non-zero root" true
              (it.H.req.Request.coll.Syccl_collective.Collective.root <> 0)
          end)
        items)
    [ H.Serve_hits; H.Serve_lower ]

(* The synth_cold grid never lets one request serve another: on a fresh
   registry that already holds every earlier request of its pass, each
   probe is an absent miss — no exact, transported or adjacent-bucket
   entry.  Cheap baseline schedules stand in for synthesized ones. *)
let cold_probes_absent () =
  let dir = "cold_probe_registry" in
  List.iter
    (fun p ->
      let registry = Registry.open_dir (Printf.sprintf "%s%d" dir p) in
      Fun.protect
        ~finally:(fun () -> Registry.destroy registry)
        (fun () ->
          List.iter
            (fun (it : H.item) ->
              let topo = it.H.req.Request.topo and coll = it.H.req.Request.coll in
              (match Registry.probe registry topo coll with
              | Registry.Miss Registry.Absent -> ()
              | Registry.Miss r ->
                  Alcotest.failf "%s %s: miss.%s" it.H.family it.H.collective
                    (Registry.miss_reason_name r)
              | Registry.Hit _ ->
                  Alcotest.failf "%s %s: hit" it.H.family it.H.collective);
              let schedules = Syccl_baselines.Fallback.schedule topo coll in
              let cost =
                List.fold_left (fun a s -> a +. Syccl_sim.Sim.time topo s) 0.0 schedules
              in
              Registry.store registry topo coll ~cost ~chosen:"fallback" schedules)
            (List.filter (fun (it : H.item) -> it.H.pass = p)
               (H.synth_cold ~seed:3 ~passes:3))))
    [ 0; 1; 2 ]

let () =
  Alcotest.run "perfbench"
    [
      ( "tail",
        [
          Alcotest.test_case "32 samples -> p68" `Quick (check_tail ~n:32 ~p:0.68 ~beyond:10);
          Alcotest.test_case "1380 samples -> p99" `Quick (check_tail ~n:1380 ~p:0.99 ~beyond:13);
          Alcotest.test_case "2000 samples -> p99.5" `Quick (check_tail ~n:2000 ~p:0.995 ~beyond:10);
          Alcotest.test_case "highest rung with ten beyond" `Quick tail_is_highest;
          Alcotest.test_case "too few samples" `Quick tail_too_few;
        ] );
      ( "harrell-davis",
        [
          Alcotest.test_case "constant sample" `Quick hd_constant;
          Alcotest.test_case "symmetric median" `Quick hd_symmetric;
          Alcotest.test_case "gap at the median" `Quick hd_gap;
        ] );
      ( "spans",
        [
          Alcotest.test_case "nested self time" `Quick nested_self;
          Alcotest.test_case "shared start, rounding overshoot" `Quick edge_self;
          Alcotest.test_case "layer reduction" `Quick reduce_layers;
        ] );
      ( "requests",
        [
          Alcotest.test_case "same seed, same list" `Quick same_seed_same_list;
          Alcotest.test_case "quotas independent of seed" `Quick quotas_fixed;
          Alcotest.test_case "serve mix: unrooted kinds equally, rooted only transported" `Quick serve_mix;
          Alcotest.test_case "synth_cold probes miss.absent" `Quick cold_probes_absent;
        ] );
    ]
