(* Bounded, mutex-protected cache with approximate-LRU eviction.

   Replaces the plain global Hashtbls that the synthesizer used to mutate
   with no synchronization (a latent race once synthesize calls run
   concurrently).  Entries carry a last-use tick from a global counter and
   a weight (1 unless the cache weighs its values, e.g. by retained
   bytes); when the total weight outgrows the capacity the
   least-recently-used entries are dropped in one batch until at most
   half the capacity remains, keeping eviction cost amortized O(1) per
   insertion.  Hit/miss/eviction counts are recorded in {!Counters} under
   the cache's name. *)

type ('k, 'v) t = {
  lock : Mutex.t;
  tbl : ('k, 'v * int * int ref) Hashtbl.t;  (* value, weight, last use *)
  capacity : int;
  weight : 'v -> int;
  mutable total : int;  (* sum of the weights in [tbl], under [lock] *)
  tick : int Atomic.t;
  hits : int Atomic.t;
  misses : int Atomic.t;
  evictions : int Atomic.t;
  h_hit : Counters.hist;  (* lookup latency of hits (lock wait included) *)
  h_miss : Counters.hist;  (* lookup latency of misses *)
  h_compute : Counters.hist;  (* find_or_compute miss-path compute time *)
}

let create ?(capacity = 1024) ?(weight = fun _ -> 1) ~name () =
  {
    lock = Mutex.create ();
    tbl = Hashtbl.create (min 64 capacity);
    capacity = max 8 capacity;
    weight;
    total = 0;
    tick = Atomic.make 0;
    hits = Counters.int_counter (name ^ ".hits");
    misses = Counters.int_counter (name ^ ".misses");
    evictions = Counters.int_counter (name ^ ".evictions");
    h_hit = Counters.histogram (name ^ ".hit_s");
    h_miss = Counters.histogram (name ^ ".miss_s");
    h_compute = Counters.histogram (name ^ ".compute_s");
  }

let touch c slot = slot := Atomic.fetch_and_add c.tick 1

let find_opt c k =
  let t0 = Clock.now () in
  Mutex.lock c.lock;
  let r =
    match Hashtbl.find_opt c.tbl k with
    | Some (v, _, slot) ->
        touch c slot;
        Atomic.incr c.hits;
        Some v
    | None ->
        Atomic.incr c.misses;
        None
  in
  Mutex.unlock c.lock;
  Counters.record (if Option.is_none r then c.h_miss else c.h_hit) (Clock.elapsed t0);
  r

(* Caller holds [c.lock].  [newest] is the tick of the entry just put: it
   survives, so a heavy value is never evicted by its own insertion. *)
let evict_locked c ~newest =
  if c.total > c.capacity then begin
    let items =
      Hashtbl.fold (fun k (_, w, slot) acc -> (!slot, k, w) :: acc) c.tbl []
    in
    let keep = max 1 (c.capacity / 2) in
    List.iter
      (fun (tick, k, w) ->
        if c.total > keep && tick <> newest then begin
          Hashtbl.remove c.tbl k;
          c.total <- c.total - w;
          Atomic.incr c.evictions
        end)
      (List.sort compare items)
  end

let put c k v =
  let w = c.weight v in
  Mutex.lock c.lock;
  (match Hashtbl.find_opt c.tbl k with
  | Some (_, w_old, _) ->
      Hashtbl.remove c.tbl k;
      c.total <- c.total - w_old
  | None -> ());
  if w <= c.capacity then begin
    let slot = ref 0 in
    touch c slot;
    Hashtbl.replace c.tbl k (v, w, slot);
    c.total <- c.total + w;
    evict_locked c ~newest:!slot
  end;
  Mutex.unlock c.lock

(* The computation runs outside the lock: concurrent callers may compute
   the same value twice, but never block each other on a slow miss, and
   [Hashtbl.replace] keeps the table consistent either way. *)
let find_or_compute c k f =
  match find_opt c k with
  | Some v -> v
  | None ->
      let t0 = Clock.now () in
      let v = f () in
      Counters.record c.h_compute (Clock.elapsed t0);
      put c k v;
      v

let length c =
  Mutex.lock c.lock;
  let n = Hashtbl.length c.tbl in
  Mutex.unlock c.lock;
  n

let clear c =
  Mutex.lock c.lock;
  Hashtbl.reset c.tbl;
  c.total <- 0;
  Mutex.unlock c.lock
