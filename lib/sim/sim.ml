module Topology = Syccl_topology.Topology
module Link = Syccl_topology.Link
module Trace = Syccl_util.Trace

type report = { time : float; events : int; xfer_finish : float array }

(* Binary min-heap of block ids, each stored with its queue key. *)
type heap = { mutable keys : float array; mutable ids : int array; mutable len : int }

(* Raised by the kernel when a [stop] predicate accepts the running
   makespan it carries. *)
exception Stopped of float

let simulate ~blocks ~trace_pid ~stop topo (s : Schedule.t) =
  Syccl_util.Faultpoint.inject "sim.crash";
  let xa = Array.of_list s.xfers in
  let nx = Array.length xa in
  let nc = Array.length s.chunks in
  Array.iter
    (fun (x : Schedule.xfer) ->
      if x.chunk < 0 || x.chunk >= nc then
        invalid_arg "Sim.run: transfer references missing chunk";
      if x.dim < 0 || x.dim >= Topology.num_dims topo then
        invalid_arg "Sim.run: bad dimension";
      if
        Topology.group_of topo ~dim:x.dim x.src
        <> Topology.group_of topo ~dim:x.dim x.dst
        || x.src = x.dst
      then invalid_arg "Sim.run: endpoints are not peers in the dimension";
      if not (Topology.edge_alive topo ~dim:x.dim x.src x.dst) then
        invalid_arg "Sim.run: transfer crosses a dead edge")
    xa;
  (* Per-chunk block count: pipelining never splits below one byte. *)
  let nblocks =
    Array.map
      (fun (c : Schedule.chunk_meta) ->
        max 1 (min blocks (int_of_float c.size)))
      s.chunks
  in
  (* Port state: one egress and one ingress per (GPU, port group), numbered
     egress = 2*(gpu*npg+pg), ingress = that + 1. *)
  let npg =
    1
    + Array.fold_left
        (fun acc d -> max acc d.Topology.port_group)
        0
        (Array.init (Topology.num_dims topo) (fun d -> Topology.dim topo d))
  in
  let n = Topology.num_gpus topo in
  let nports = 2 * n * npg in
  (* Block ids: transfers take consecutive id ranges in (priority,
     transfer) order, and block [b] of transfer [i] is id [off.(i) + b].
     Id order is then (priority, transfer, block) order, so the queues
     order blocks by (key, id) alone — the same order as (key, priority,
     transfer, block). *)
  let by_prio = Array.init nx Fun.id in
  Array.stable_sort (fun a b -> Int.compare xa.(a).prio xa.(b).prio) by_prio;
  let off = Array.make nx 0 and xnb = Array.make nx 0 in
  let total_blocks =
    Array.fold_left
      (fun next i ->
        off.(i) <- next;
        xnb.(i) <- nblocks.(xa.(i).chunk);
        next + xnb.(i))
      0 by_prio
  in
  (* Per-transfer constants, computed once: ports and the two per-block
     costs. *)
  let eport = Array.make nx 0 and iport = Array.make nx 0 in
  let busy = Array.make nx 0.0 and lat = Array.make nx 0.0 in
  Array.iteri
    (fun i (x : Schedule.xfer) ->
      let nb = xnb.(i) in
      let d = Topology.dim topo x.dim in
      let pg = d.Topology.port_group in
      eport.(i) <- 2 * ((x.src * npg) + pg);
      iport.(i) <- (2 * ((x.dst * npg) + pg)) + 1;
      let sb = s.chunks.(x.chunk).Schedule.size /. float_of_int nb in
      busy.(i) <- Link.busy_time d.Topology.link sb;
      lat.(i) <- Link.transfer_time d.Topology.link sb)
    xa;
  (* Dependents of transfer [i] — the transfers of its chunk leaving its
     destination — form a list threaded through [dep_next] from
     [dep_first.(i)], in descending transfer index.  [inbound.(i)] counts
     the transfers of its chunk arriving at its source.  One pass per chunk
     (transfers bucketed by chunk, ascending) with GPU-indexed scratch. *)
  let cstart = Array.make (nc + 1) 0 in
  Array.iter (fun (x : Schedule.xfer) -> cstart.(x.chunk + 1) <- cstart.(x.chunk + 1) + 1) xa;
  for c = 1 to nc do
    cstart.(c) <- cstart.(c) + cstart.(c - 1)
  done;
  let corder = Array.make nx 0 in
  let fill = Array.sub cstart 0 nc in
  Array.iteri
    (fun i (x : Schedule.xfer) ->
      corder.(fill.(x.chunk)) <- i;
      fill.(x.chunk) <- fill.(x.chunk) + 1)
    xa;
  let head = Array.make n (-1) and cnt = Array.make n 0 in
  let dep_first = Array.make nx (-1) and dep_next = Array.make nx (-1) in
  let inbound = Array.make nx 0 in
  for c = 0 to nc - 1 do
    for k = cstart.(c) to cstart.(c + 1) - 1 do
      let x = xa.(corder.(k)) in
      dep_next.(corder.(k)) <- head.(x.src);
      head.(x.src) <- corder.(k);
      cnt.(x.dst) <- cnt.(x.dst) + 1
    done;
    for k = cstart.(c) to cstart.(c + 1) - 1 do
      let i = corder.(k) in
      dep_first.(i) <- head.(xa.(i).dst);
      inbound.(i) <- cnt.(xa.(i).src)
    done;
    for k = cstart.(c) to cstart.(c + 1) - 1 do
      let x = xa.(corder.(k)) in
      head.(x.src) <- -1;
      cnt.(x.dst) <- 0
    done
  done;
  (* Per-block state, indexed by block id.  need: remaining data inputs
     before the block may be injected; key: its accumulated availability
     (max of arrivals, for reduce) until its inputs are all in — it is
     queued exactly then, once — and its queue key from then on. *)
  let owner = Array.make total_blocks 0 in
  let need = Array.make total_blocks 0 in
  let key = Array.make total_blocks 0.0 in
  let is_initial c v = List.mem v s.chunks.(c).Schedule.initial in
  Array.iteri
    (fun i (x : Schedule.xfer) ->
      let per_block =
        match s.chunks.(x.chunk).mode with
        | `Gather -> if is_initial x.chunk x.src then 0 else min 1 inbound.(i)
        | `Reduce -> inbound.(i)
      in
      Array.fill owner off.(i) xnb.(i) i;
      Array.fill need off.(i) xnb.(i) per_block)
    xa;
  (* Heaps keep each id's key beside it: a key never changes while its id
     is queued. *)
  let push h id =
    if h.len = Array.length h.ids then begin
      let cap = max 8 (2 * h.len) in
      let keys = Array.make cap 0.0 and ids = Array.make cap 0 in
      Array.blit h.keys 0 keys 0 h.len;
      Array.blit h.ids 0 ids 0 h.len;
      h.keys <- keys;
      h.ids <- ids
    end;
    let keys = h.keys and ids = h.ids in
    let k = key.(id) in
    let i = ref h.len and sifting = ref true in
    h.len <- h.len + 1;
    while !sifting && !i > 0 do
      let parent = (!i - 1) / 2 in
      let c = Float.compare k keys.(parent) in
      if c < 0 || (c = 0 && id < ids.(parent)) then begin
        keys.(!i) <- keys.(parent);
        ids.(!i) <- ids.(parent);
        i := parent
      end
      else sifting := false
    done;
    keys.(!i) <- k;
    ids.(!i) <- id
  in
  (* Remove and return the minimum id, or -1 when empty. *)
  let pop h =
    if h.len = 0 then -1
    else begin
      let keys = h.keys and ids = h.ids in
      let top = ids.(0) in
      let len = h.len - 1 in
      h.len <- len;
      if len > 0 then begin
        let lk = keys.(len) and lid = ids.(len) in
        let i = ref 0 and sifting = ref true in
        while !sifting do
          let l = (2 * !i) + 1 in
          if l >= len then sifting := false
          else begin
            let r = l + 1 in
            let c =
              if r >= len then l
              else
                let d = Float.compare keys.(r) keys.(l) in
                if d < 0 || (d = 0 && ids.(r) < ids.(l)) then r else l
            in
            let d = Float.compare keys.(c) lk in
            if d < 0 || (d = 0 && ids.(c) < lid) then begin
              keys.(!i) <- keys.(c);
              ids.(!i) <- ids.(c);
              i := c
            end
            else sifting := false
          end
        done;
        keys.(!i) <- lk;
        ids.(!i) <- lid
      end;
      top
    end
  in
  let queue = { keys = [||]; ids = [||]; len = 0 } in
  (* Seed: blocks whose source is ready at time 0. *)
  Array.iteri
    (fun i (x : Schedule.xfer) ->
      let ready =
        match s.chunks.(x.chunk).mode with
        | `Gather -> is_initial x.chunk x.src
        | `Reduce -> need.(off.(i)) = 0 && is_initial x.chunk x.src
      in
      if ready then
        for id = off.(i) to off.(i) + xnb.(i) - 1 do
          push queue id
        done)
    xa;
  (* A block binds its ports only when it can start at its availability
     time.  Binding at pop time would couple unrelated ports: an egress
     waiting on a busy remote ingress would block every later send from that
     egress — head-of-line blocking the hardware does not have.  Blocks that
     cannot start park in a per-port waiting queue; each port keeps at most
     one "promoted" representative in the main queue (scheduled at the
     port's free time), so wake-ups stay linear in the number of binds.
     A block only ever parks on one of its own two ports, so [rep.(p)], the
     block port [p] has promoted (or -1), is all the bookkeeping needed. *)
  let free = Array.make nports 0.0 in
  let waiters =
    Array.init nports (fun _ -> { keys = [||]; ids = [||]; len = 0 })
  in
  let rep = Array.make nports (-1) in
  let promote p =
    if rep.(p) < 0 then begin
      let w = pop waiters.(p) in
      if w >= 0 then begin
        rep.(p) <- w;
        key.(w) <- Float.max key.(w) free.(p);
        push queue w
      end
    end
  in
  (* Timeline export: every executed block becomes one span on the egress
     port's track and one on the ingress port's track (virtual simulated
     time), so the schedule renders as a link-occupancy Gantt chart in
     Perfetto.  Tracks are numbered by port id and named on first use. *)
  let tracing =
    match trace_pid with
    | Some pid when Trace.enabled () -> Some pid
    | _ -> None
  in
  let port_seen = Array.make (if tracing = None then 0 else nports) false in
  let mark_port pid p =
    if not port_seen.(p) then begin
      port_seen.(p) <- true;
      let gp = p lsr 1 in
      Trace.set_track_name ~pid ~tid:p ~sort_index:p
        (Printf.sprintf "gpu%d pg%d %s" (gp / npg) (gp mod npg)
           (if p land 1 = 0 then "out" else "in"))
    end
  in
  let trace_block pid xid block ~start ~busy =
    let x = xa.(xid) in
    let egp = eport.(xid) and igp = iport.(xid) in
    mark_port pid egp;
    mark_port pid igp;
    let name = Printf.sprintf "c%d.b%d %d>%d" x.chunk block x.src x.dst in
    let args =
      [
        ("xfer", string_of_int xid);
        ("chunk", string_of_int x.chunk);
        ("block", string_of_int block);
        ("src", string_of_int x.src);
        ("dst", string_of_int x.dst);
        ("dim", string_of_int x.dim);
      ]
    in
    Trace.emit ~pid ~tid:egp ~cat:"sim" ~args ~name ~ts:start ~dur:busy ();
    Trace.emit ~pid ~tid:igp ~cat:"sim" ~args ~name ~ts:start ~dur:busy ()
  in
  let xfer_finish = Array.make nx 0.0 in
  let blocks_done = Array.make nx 0 in
  let event_cap = 64 + (32 * total_blocks) in
  let pops = ref 0 and events = ref 0 and makespan = ref 0.0 in
  let next = ref (pop queue) in
  while !next >= 0 do
    let id = !next in
    incr pops;
    if !pops > event_cap then failwith "Sim.run: event cap exceeded";
    let xid = owner.(id) in
    let egp = eport.(xid) and igp = iport.(xid) in
    let was_rep =
      if rep.(egp) = id then egp else if rep.(igp) = id then igp else -1
    in
    if was_rep >= 0 then rep.(was_rep) <- -1;
    let eg_free = free.(egp) and ig_free = free.(igp) in
    let blocked = Float.max eg_free ig_free in
    if blocked > key.(id) +. 1e-15 then begin
      (* Park on the later-free port; keep that port's pipeline primed. *)
      let p = if eg_free >= ig_free then egp else igp in
      push waiters.(p) id;
      promote p;
      if was_rep >= 0 && was_rep <> p then promote was_rep
    end
    else begin
      incr events;
      let start = key.(id) in
      let block = id - off.(xid) in
      free.(egp) <- start +. busy.(xid);
      free.(igp) <- start +. busy.(xid);
      (match tracing with
      | None -> ()
      | Some pid -> trace_block pid xid block ~start ~busy:busy.(xid));
      let arrival = start +. lat.(xid) in
      blocks_done.(xid) <- blocks_done.(xid) + 1;
      xfer_finish.(xid) <- Float.max xfer_finish.(xid) arrival;
      if arrival > !makespan then begin
        makespan := arrival;
        match stop with
        | Some accept when accept arrival -> raise (Stopped arrival)
        | _ -> ()
      end;
      (* Wake the dependents' copies of this block. *)
      let d = ref dep_first.(xid) in
      while !d >= 0 do
        let dx = !d in
        if block < xnb.(dx) then begin
          let did = off.(dx) + block in
          if need.(did) > 0 then begin
            need.(did) <- need.(did) - 1;
            key.(did) <- Float.max key.(did) arrival;
            if need.(did) = 0 then push queue did
          end
        end;
        d := dep_next.(dx)
      done;
      promote egp;
      promote igp
    end;
    next := pop queue
  done;
  (* Every block of every transfer must have run, else the schedule
     deadlocked (a relay never received its data). *)
  Array.iteri
    (fun i (x : Schedule.xfer) ->
      if blocks_done.(i) <> xnb.(i) then
        failwith
          (Printf.sprintf "Sim.run: deadlock, transfer %d (chunk %d, %d->%d) incomplete"
             i x.chunk x.src x.dst))
    xa;
  { time = !makespan; events = !events; xfer_finish }

let run ?(blocks = 8) ?trace_pid topo s =
  simulate ~blocks ~trace_pid ~stop:None topo s

let time ?blocks topo s = (run ?blocks topo s).time

(* L = completed phases + the current phase's running makespan.  Both
   terms only grow and IEEE addition is monotone, so every L offered to
   [stop] is at most the full sum. *)
let phases_time ?(blocks = 8) ?stop topo phases =
  let rec go acc = function
    | [] -> acc
    | s :: rest -> (
        let stop = Option.map (fun accept m -> accept (acc +. m)) stop in
        match simulate ~blocks ~trace_pid:None ~stop topo s with
        | r -> go (acc +. r.time) rest
        | exception Stopped m -> acc +. m)
  in
  go 0.0 phases
