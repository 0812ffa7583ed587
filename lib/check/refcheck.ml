(* An independent reference interpreter for schedule semantics, used as the
   differential oracle for {!Syccl_sim.Validate}.

   Where [Validate] reasons structurally (functional graphs, causal
   fixpoints over holder sets), this module *executes* the schedule under
   dataflow semantics and inspects the final state:

   - gather chunks propagate holder sets to a fixpoint and count
     deliveries per GPU;
   - reduce chunks fire each transfer only once every inbound transfer of
     its source has fired (the simulator's need-counting rule) and
     propagate {e multisets} of contributor ids, so a duplicated, dropped,
     garbage-fed or cyclic transfer shows up as a wrong contribution
     multiset at the destination (or as a stalled execution).

   The two implementations share no code and no traversal order, so a bug
   has to be present in both — independently — to go unnoticed. *)

module Topology = Syccl_topology.Topology
module Collective = Syccl_collective.Collective
module Schedule = Syccl_sim.Schedule

let ( let* ) = Result.bind

let err fmt = Format.kasprintf (fun s -> Error s) fmt

(* Sorted contributor-id multiset a GPU has accumulated. *)
module Imap = Map.Make (Int)

let multiset_add v m = Imap.update v (fun c -> Some (1 + Option.value c ~default:0)) m

let multiset_union a b = Imap.union (fun _ x y -> Some (x + y)) a b

let run_gather (s : Schedule.t) c (meta : Schedule.chunk_meta) =
  let xfers = List.filter (fun (x : Schedule.xfer) -> x.chunk = c) s.xfers in
  let holders = Hashtbl.create 16 in
  let received = Hashtbl.create 16 in
  List.iter (fun v -> Hashtbl.replace holders v ()) meta.initial;
  let fired = Hashtbl.create 16 in
  let progress = ref true in
  while !progress do
    progress := false;
    List.iteri
      (fun i (x : Schedule.xfer) ->
        if (not (Hashtbl.mem fired i)) && Hashtbl.mem holders x.src then begin
          Hashtbl.replace fired i ();
          Hashtbl.replace received x.dst
            (1 + Option.value (Hashtbl.find_opt received x.dst) ~default:0);
          Hashtbl.replace holders x.dst ();
          progress := true
        end)
      xfers
  done;
  if Hashtbl.length fired <> List.length xfers then
    err "ref: gather chunk %d stalls (%d of %d transfers fire)" c
      (Hashtbl.length fired) (List.length xfers)
  else
    let dup =
      Hashtbl.fold
        (fun v n acc ->
          match acc with
          | Some _ -> acc
          | None -> if n > 1 || List.mem v meta.initial then Some v else None)
        received None
    in
    match dup with
    | Some v -> err "ref: gather chunk %d delivered more than once to GPU %d" c v
    | None -> (
        match
          List.find_opt (fun v -> not (Hashtbl.mem holders v)) meta.wanted
        with
        | Some v -> err "ref: gather chunk %d never reaches GPU %d" c v
        | None -> Ok ())

let run_reduce (s : Schedule.t) c (meta : Schedule.chunk_meta) =
  match meta.wanted with
  | [ dst ] ->
      let xfers =
        Array.of_list (List.filter (fun (x : Schedule.xfer) -> x.chunk = c) s.xfers)
      in
      let nx = Array.length xfers in
      (* held.(v): the contribution multiset GPU v has accumulated. *)
      let held = Hashtbl.create 16 in
      let get v = Option.value (Hashtbl.find_opt held v) ~default:Imap.empty in
      List.iter
        (fun v -> Hashtbl.replace held v (multiset_add v (get v)))
        (List.sort_uniq compare meta.initial);
      (* inbound.(i): unfired transfers into xfers.(i).src — the simulator's
         need count.  A transfer may fire only when its source will receive
         nothing further. *)
      let inbound = Array.make nx 0 in
      Array.iteri
        (fun i (x : Schedule.xfer) ->
          Array.iter
            (fun (y : Schedule.xfer) -> if y.dst = x.src then inbound.(i) <- inbound.(i) + 1)
            xfers)
        xfers;
      let fired = Array.make nx false in
      let progress = ref true in
      while !progress do
        progress := false;
        Array.iteri
          (fun i (x : Schedule.xfer) ->
            if (not fired.(i)) && inbound.(i) = 0 then begin
              fired.(i) <- true;
              Hashtbl.replace held x.dst (multiset_union (get x.dst) (get x.src));
              Array.iteri
                (fun j (y : Schedule.xfer) ->
                  if (not fired.(j)) && y.src = x.dst then
                    inbound.(j) <- inbound.(j) - 1)
                xfers;
              progress := true
            end)
          xfers
      done;
      if Array.exists (fun f -> not f) fired then
        err "ref: reduce chunk %d stalls (a transfer can never fire)" c
      else
        let want =
          List.fold_left
            (fun m v -> multiset_add v m)
            Imap.empty
            (List.sort_uniq compare meta.initial)
        in
        let got = get dst in
        if Imap.equal ( = ) want got then Ok ()
        else
          let describe m =
            String.concat ","
              (List.map
                 (fun (v, n) -> Printf.sprintf "%d*%d" v n)
                 (Imap.bindings m))
          in
          err "ref: reduce chunk %d destination %d accumulates {%s}, wants {%s}"
            c dst (describe got) (describe want)
  | _ -> err "ref: reduce chunk %d must have exactly one destination" c

(* Execute every chunk of one phase schedule under reference semantics. *)
let run_schedule (s : Schedule.t) =
  let rec go c =
    if c >= Array.length s.chunks then Ok ()
    else
      let meta = s.chunks.(c) in
      let* () =
        match meta.Schedule.mode with
        | `Gather -> run_gather s c meta
        | `Reduce -> run_reduce s c meta
      in
      go (c + 1)
  in
  go 0

(* Reference demand coverage for one collective phase: every demand chunk's
   tagged fractions execute correctly, sizes sum, sources/destinations
   match the demand exactly. *)
let covers_phase (phase : Collective.t) (s : Schedule.t) =
  let* () = run_schedule s in
  let frs tag =
    List.filteri (fun _ (m : Schedule.chunk_meta) -> m.tag = tag)
      (Array.to_list s.chunks)
  in
  let sum l = List.fold_left (fun a (m : Schedule.chunk_meta) -> a +. m.size) 0.0 l in
  let rec go = function
    | [] -> Ok ()
    | Collective.Gather_chunk { id; size; src; dsts } :: rest ->
        let l = frs id in
        if l = [] then err "ref: demand chunk %d unscheduled" id
        else if Float.abs (sum l -. size) > 1e-3 *. size then
          err "ref: demand chunk %d size mismatch" id
        else if
          List.for_all
            (fun (m : Schedule.chunk_meta) ->
              m.mode = `Gather
              && List.mem src m.initial
              && List.for_all
                   (fun d -> List.mem d m.wanted || List.mem d m.initial)
                   dsts)
            l
        then go rest
        else err "ref: demand chunk %d fraction mismatched" id
    | Collective.Reduce_chunk { id; size; dst; srcs } :: rest ->
        let l = frs id in
        if l = [] then err "ref: demand chunk %d unscheduled" id
        else if Float.abs (sum l -. size) > 1e-3 *. size then
          err "ref: demand chunk %d size mismatch" id
        else if
          List.for_all
            (fun (m : Schedule.chunk_meta) ->
              m.mode = `Reduce
              && m.wanted = [ dst ]
              && List.sort_uniq compare m.initial = List.sort_uniq compare srcs)
            l
        then go rest
        else err "ref: demand chunk %d fraction mismatched" id
  in
  go (Collective.chunks phase)

let covers topo coll schedules =
  ignore topo;
  let phases = Collective.phases coll in
  if List.length phases <> List.length schedules then
    err "ref: expected %d phase schedules, got %d" (List.length phases)
      (List.length schedules)
  else
    List.fold_left2
      (fun acc phase s ->
        let* () = acc in
        covers_phase phase s)
      (Ok ()) phases schedules

let lower_check ?channels (r : Syccl_serve.Request.t)
    (o : Syccl.Synthesizer.outcome) =
  let coll = r.Syccl_serve.Request.coll in
  let* () =
    Syccl_sim.Msccl_interp.check_lowering ?channels ~coll
      o.Syccl.Synthesizer.schedules
  in
  Result.map_error
    (fun e -> "reference checker divergence: " ^ e)
    (covers r.Syccl_serve.Request.topo coll o.Syccl.Synthesizer.schedules)
