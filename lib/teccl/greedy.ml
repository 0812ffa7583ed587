module Topology = Syccl_topology.Topology
module Link = Syccl_topology.Link
module Schedule = Syccl_sim.Schedule
module Xrand = Syccl_util.Xrand

type restriction = All | Groups of (int * int) list

type cand = {
  score : float;
  start : float;
  arrive : float;
  c : int;
  u : int;
  v : int;
  dim : int;
}

(* Candidate senders examined per (chunk, destination) by the beam. *)
let holder_beam = 6

let solve ?rng ?(restrict = All) ?(budget = Syccl_util.Budget.unlimited) topo
    (chunks : Schedule.chunk_meta array) =
  let n = Topology.num_gpus topo in
  let nd = Topology.num_dims topo in
  let npg =
    1
    + Array.fold_left max 0
        (Array.init nd (fun d -> (Topology.dim topo d).Topology.port_group))
  in
  let allowed d g =
    match restrict with
    | All -> true
    | Groups gs -> List.mem (d, g) gs
  in
  let dims_between u v =
    let rec go d acc =
      if d < 0 then acc
      else
        let gu = Topology.group_of topo ~dim:d u in
        if
          gu = Topology.group_of topo ~dim:d v
          && allowed d gu
          && Topology.edge_alive topo ~dim:d u v
        then go (d - 1) (d :: acc)
        else go (d - 1) acc
    in
    go (nd - 1) []
  in
  let nc = Array.length chunks in
  let hold = Array.make_matrix nc n infinity in
  let eg = Array.make (n * npg) 0.0 and ing = Array.make (n * npg) 0.0 in
  let unmet = Array.make nc [] in
  Array.iteri
    (fun c (m : Schedule.chunk_meta) ->
      assert (m.mode = `Gather);
      List.iter (fun v -> hold.(c).(v) <- 0.0) m.initial;
      unmet.(c) <- List.filter (fun v -> hold.(c).(v) = infinity) m.wanted)
    chunks;
  let jitter () = match rng with None -> 0.0 | Some r -> Xrand.float r 1e-12 in
  let candidate c u v d =
    let dimrec = Topology.dim topo d in
    let pg = dimrec.Topology.port_group in
    let link = dimrec.Topology.link in
    let s = chunks.(c).Schedule.size in
    let start =
      Float.max hold.(c).(u)
        (Float.max eg.((u * npg) + pg) ing.((v * npg) + pg))
    in
    let arrive = start +. Link.transfer_time link s in
    (* The port time consumed is charged as a congestion penalty so the
       greedy prefers relaying over repeatedly crossing scarce links. *)
    let score = arrive +. Link.busy_time link s +. jitter () in
    { score; start; arrive; c; u; v; dim = d }
  in
  (* Beamed holders for a chunk: the few senders likeliest to finish first. *)
  let beam_holders c =
    let hs = ref [] in
    for u = 0 to n - 1 do
      if hold.(c).(u) < infinity then begin
        let port = ref infinity in
        for pg = 0 to npg - 1 do
          port := Float.min !port eg.((u * npg) + pg)
        done;
        hs := (Float.max hold.(c).(u) !port, u) :: !hs
      end
    done;
    let sorted = List.sort compare !hs in
    let rec take k = function
      | [] -> []
      | _ when k = 0 -> []
      | (_, u) :: rest -> u :: take (k - 1) rest
    in
    take holder_beam sorted
  in
  let all_holders c =
    List.filter
      (fun u -> hold.(c).(u) < infinity)
      (List.init n (fun i -> i))
  in
  (* Track holders per (chunk, most-local group) so a freshly arrived copy
     next to the destination is always considered as a relay, even when the
     global beam (keyed by port idleness) would exclude it. *)
  let local_dim =
    (* Fastest link class = the most local neighbourhood (NVLink). *)
    let best = ref 0 and best_beta = ref infinity in
    for d = 0 to nd - 1 do
      let beta = (Topology.dim topo d).Topology.link.Link.beta in
      if beta < !best_beta then begin
        best := d;
        best_beta := beta
      end
    done;
    !best
  in
  let local_holders =
    Array.init nc (fun _ -> Array.make (Topology.groups_count topo ~dim:local_dim) [])
  in
  let note_holder c v =
    let g = Topology.group_of topo ~dim:local_dim v in
    if not (List.mem v local_holders.(c).(g)) then
      local_holders.(c).(g) <- v :: local_holders.(c).(g)
  in
  Array.iteri
    (fun c (m : Schedule.chunk_meta) -> List.iter (note_holder c) m.initial)
    chunks;
  let xfers = ref [] in
  let prio = ref 0 in
  let remaining = ref (Array.fold_left (fun a l -> a + List.length l) 0 unmet) in
  let timed_out = ref false in
  while !remaining > 0 && not !timed_out do
    if Syccl_util.Budget.expired budget then timed_out := true
    else begin
      let best = ref None in
      let consider cand =
        match !best with
        | Some b when b.score <= cand.score -> ()
        | _ -> best := Some cand
      in
      for c = 0 to nc - 1 do
        if unmet.(c) <> [] then begin
          let holders = beam_holders c in
          List.iter
            (fun v ->
              let feed hs =
                List.iter
                  (fun u ->
                    if u <> v then
                      List.iter (fun d -> consider (candidate c u v d)) (dims_between u v))
                  hs
              in
              feed holders;
              feed local_holders.(c).(Topology.group_of topo ~dim:local_dim v);
              (* The beam may contain no sender that can reach [v] under the
                 restriction; widen to every holder in that case. *)
              let reachable =
                List.exists (fun u -> u <> v && dims_between u v <> []) holders
              in
              if not reachable then feed (all_holders c))
            unmet.(c)
        end
      done;
      (* No holder can reach any unmet destination directly — on a punctured
         topology the only edge may be dead.  Fall back to one store-and-
         forward hop through a non-wanted relay: multi-source BFS from the
         chunk's holders over surviving allowed edges, delivering the first
         hop of a shortest path toward an unmet destination.  Each relay
         strictly shrinks the holder-to-destination distance, so the loop
         still terminates. *)
      let relay_candidate () =
        let rbest = ref None in
        let rconsider cand =
          match !rbest with
          | Some b when b.score <= cand.score -> ()
          | _ -> rbest := Some cand
        in
        for c = 0 to nc - 1 do
          if unmet.(c) <> [] then begin
            let dist = Array.make n max_int and parent = Array.make n (-1) in
            let q = Queue.create () in
            for u = 0 to n - 1 do
              if hold.(c).(u) < infinity then begin
                dist.(u) <- 0;
                Queue.push u q
              end
            done;
            while not (Queue.is_empty q) do
              let u = Queue.pop q in
              for w = 0 to n - 1 do
                if dist.(w) = max_int && dims_between u w <> [] then begin
                  dist.(w) <- dist.(u) + 1;
                  parent.(w) <- u;
                  Queue.push w q
                end
              done
            done;
            List.iter
              (fun v ->
                if dist.(v) < max_int then begin
                  (* First hop out of the holder set on a shortest path. *)
                  let rec first_hop w =
                    if dist.(w) = 1 then w else first_hop parent.(w)
                  in
                  let w = first_hop v in
                  let u = parent.(w) in
                  List.iter
                    (fun d -> rconsider (candidate c u w d))
                    (dims_between u w)
                end)
              unmet.(c)
          end
        done;
        !rbest
      in
      let chosen =
        match !best with Some _ as b -> b | None -> relay_candidate ()
      in
      match chosen with
      | None -> timed_out := true (* demand unreachable under restriction *)
      | Some b ->
          let dimrec = Topology.dim topo b.dim in
          let pg = dimrec.Topology.port_group in
          let busy = Link.busy_time dimrec.Topology.link chunks.(b.c).Schedule.size in
          eg.((b.u * npg) + pg) <- b.start +. busy;
          ing.((b.v * npg) + pg) <- b.start +. busy;
          hold.(b.c).(b.v) <- b.arrive;
          note_holder b.c b.v;
          if List.mem b.v unmet.(b.c) then begin
            unmet.(b.c) <- List.filter (fun v -> v <> b.v) unmet.(b.c);
            decr remaining
          end;
          xfers :=
            { Schedule.chunk = b.c; src = b.u; dst = b.v; dim = b.dim; prio = !prio }
            :: !xfers;
          incr prio
    end
  done;
  if !timed_out then None
  else Some { Schedule.chunks; xfers = List.rev !xfers }
