(* Tests for the JSON codec and schedule persistence. *)

module Json = Syccl_util.Json
module Schedule = Syccl_sim.Schedule
module Builders = Syccl_topology.Builders
module C = Syccl_collective.Collective
module Sim = Syccl_sim.Sim

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

let test_json_scalars () =
  check Alcotest.string "null" "null" (Json.to_string Json.Null);
  check Alcotest.string "bool" "true" (Json.to_string (Json.Bool true));
  check Alcotest.string "int-like" "42" (Json.to_string (Json.Num 42.0));
  check Alcotest.string "string escape" "\"a\\nb\\\"c\""
    (Json.to_string (Json.Str "a\nb\"c"))

let test_json_parse_basics () =
  check Alcotest.bool "null" true (Json.of_string " null " = Json.Null);
  check Alcotest.bool "nested" true
    (Json.of_string {|{"a": [1, 2.5, "x"], "b": {"c": false}}|}
    = Json.Obj
        [
          ("a", Json.List [ Json.Num 1.0; Json.Num 2.5; Json.Str "x" ]);
          ("b", Json.Obj [ ("c", Json.Bool false) ]);
        ])

let test_json_errors () =
  let bad s =
    match Json.of_string s with
    | exception Json.Parse_error _ -> true
    | _ -> false
  in
  Alcotest.(check bool) "trailing garbage" true (bad "1 2");
  Alcotest.(check bool) "unterminated string" true (bad "\"abc");
  Alcotest.(check bool) "bad literal" true (bad "nul");
  Alcotest.(check bool) "unclosed list" true (bad "[1, 2")

let json_roundtrip_prop =
  let rec gen depth rng =
    let open Syccl_util.Xrand in
    match if depth = 0 then 0 else int rng 6 with
    | 0 -> Json.Num (Float.of_int (int rng 1000))
    | 1 -> Json.Bool (bool rng)
    | 2 -> Json.Null
    | 3 -> Json.Str (String.init (int rng 8) (fun _ -> Char.chr (32 + int rng 90)))
    | 4 -> Json.List (List.init (int rng 4) (fun _ -> gen (depth - 1) rng))
    | _ ->
        Json.Obj
          (List.init (int rng 4) (fun i -> (Printf.sprintf "k%d" i, gen (depth - 1) rng)))
  in
  QCheck.Test.make ~name:"json print/parse roundtrip" ~count:200
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Syccl_util.Xrand.create seed in
      let v = gen 3 rng in
      Json.of_string (Json.to_string v) = v
      && Json.of_string (Json.to_string ~pretty:true v) = v)

let test_schedule_roundtrip () =
  let topo = Builders.a100 ~servers:2 in
  let coll = C.make C.AllGather ~n:16 ~size:1.6e6 in
  let s = Syccl_baselines.Ring.allgather topo coll in
  let s' = Schedule.of_json (Json.of_string (Json.to_string (Schedule.to_json s))) in
  check Alcotest.int "xfers preserved" (Schedule.num_xfers s) (Schedule.num_xfers s');
  check (Alcotest.float 1e-12) "behaviour preserved" (Sim.time topo s) (Sim.time topo s')

let test_reduce_schedule_roundtrip () =
  let topo = Builders.a100 ~servers:2 in
  let coll = C.make C.ReduceScatter ~n:16 ~size:1.6e6 in
  let s = Syccl_baselines.Ring.reducescatter topo coll in
  let s' = Schedule.of_json (Schedule.to_json s) in
  Alcotest.(check bool) "reduce mode preserved" true
    (Array.for_all (fun c -> c.Schedule.mode = `Reduce) s'.Schedule.chunks);
  check (Alcotest.float 1e-12) "behaviour preserved" (Sim.time topo s) (Sim.time topo s')

let test_schedule_schema_version () =
  let topo = Builders.a100 ~servers:2 in
  let coll = C.make C.AllGather ~n:16 ~size:1.6e6 in
  let s = Syccl_baselines.Ring.allgather topo coll in
  let fields =
    match Schedule.to_json s with
    | Json.Obj fields -> fields
    | _ -> Alcotest.fail "schedule must encode as an object"
  in
  Alcotest.(check bool) "to_json stamps the current schema version" true
    (List.assoc_opt "schema_version" fields
    = Some (Json.Num (float_of_int Schedule.schema_version)));
  (* A document without a version is rejected... *)
  let versionless = Json.Obj (List.remove_assoc "schema_version" fields) in
  (match Schedule.of_json versionless with
  | exception Json.Parse_error msg ->
      Alcotest.(check bool) "error names the missing field" true
        (Astring_replacement.contains msg "schema_version")
  | _ -> Alcotest.fail "a missing schema_version must be rejected");
  (* ...and so is a mismatch, with a clear Parse_error. *)
  let future =
    Json.Obj
      (List.map
         (fun (k, v) ->
           if k = "schema_version" then (k, Json.Num 999.0) else (k, v))
         fields)
  in
  match Schedule.of_json future with
  | exception Json.Parse_error msg ->
      Alcotest.(check bool) "error names both versions" true
        (Astring_replacement.contains msg "999"
        && Astring_replacement.contains msg "schema_version")
  | _ -> Alcotest.fail "future schema_version must be rejected"

let test_json_numbers () =
  check (Alcotest.float 1e-12) "negative" (-3.5)
    (Json.to_float (Json.of_string "-3.5"));
  check (Alcotest.float 1e-12) "exponent" 1.5e8
    (Json.to_float (Json.of_string "1.5e8"));
  check (Alcotest.float 1e-12) "negative exponent" 2.5e-3
    (Json.to_float (Json.of_string "2.5E-3"));
  (* Large integers round-trip exactly through the printer. *)
  let v = Json.Num 1073741824.0 in
  check Alcotest.string "no scientific blowup" "1073741824" (Json.to_string v)

let test_json_accessor_errors () =
  let bad f =
    match f () with exception Json.Parse_error _ -> true | _ -> false
  in
  Alcotest.(check bool) "member on list" true
    (bad (fun () -> Json.member "x" (Json.List [])));
  Alcotest.(check bool) "missing member" true
    (bad (fun () -> Json.member "x" (Json.Obj [ ("y", Json.Null) ])));
  Alcotest.(check bool) "to_float on string" true
    (bad (fun () -> Json.to_float (Json.Str "1")))

let suite =
  [
    ("json numbers", `Quick, test_json_numbers);
    ("json accessor errors", `Quick, test_json_accessor_errors);
    ("json scalars", `Quick, test_json_scalars);
    ("json parse basics", `Quick, test_json_parse_basics);
    ("json errors", `Quick, test_json_errors);
    qtest json_roundtrip_prop;
    ("schedule roundtrip", `Quick, test_schedule_roundtrip);
    ("reduce schedule roundtrip", `Quick, test_reduce_schedule_roundtrip);
    ("schedule schema version", `Quick, test_schedule_schema_version);
  ]
