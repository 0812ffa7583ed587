(* Map-only domain pool: one process-wide worker set serving one list of
   open map jobs (see pool.mli for the contract).

   A job is an array of elements and a cursor; whoever runs elements
   claims them with one fetch-and-add on the cursor.  The calling domain
   owns its job and needs no admission; other domains (the workers, and
   owners of other jobs waiting for their last elements) take one of the
   job's [width - 1] seats and then run its elements until none is left.
   A domain waiting on its job only ever runs elements that are already
   published, never blocks on one, so nested maps cannot deadlock. *)

let max_width = 32
let hw = max 1 (Domain.recommended_domain_count ())

(* The seats a job admits besides its caller: 0 runs maps sequentially. *)
type t = int

type job = {
  run : int -> unit; (* runs element [i], storing its result; never raises *)
  len : int;
  cursor : int Atomic.t; (* next index to claim *)
  finished : int Atomic.t; (* elements whose result is stored *)
  seats : int Atomic.t;
}

(* Open jobs, newest first, so a helper finishes nested work before it
   starts new outer elements.  Written under [lock], read without it;
   workers sleep on [work] while no open job admits them. *)
let jobs : job list Atomic.t = Atomic.make []
let lock = Mutex.create ()
let work = Condition.create ()
let live = ref true
let workers : unit Domain.t list ref = ref []
let nworkers = Atomic.make 0

(* Time from a job's publication to the claim of each of its elements:
   scheduling delay as seen by the work. *)
let h_queue_latency = Counters.histogram "pool.queue_latency_s"

(* Crash isolation: every element exception is recorded (counter + trace
   instant with backtrace) at the point of capture, so a raising element
   is diagnosable even when the caller turns it into a per-element
   fallback instead of letting it propagate. *)
let c_task_raised = Counters.int_counter "pool.task_raised"

let record_task_exn e =
  Atomic.incr c_task_raised;
  Trace.instant "pool.task_raised"
    ~args:
      [
        ("exn", Printexc.to_string e);
        ("backtrace", Printexc.get_backtrace ());
      ]

let protect f x =
  match
    Faultpoint.inject "pool.crash";
    f x
  with
  | v -> Ok v
  | exception e ->
      record_task_exn e;
      Error e

let rec drain job =
  let i = Atomic.fetch_and_add job.cursor 1 in
  if i < job.len then begin
    job.run i;
    Atomic.incr job.finished;
    drain job
  end

(* A seat in the newest open job that has an element left to claim and a
   seat left to give. *)
let join () =
  let rec admit job =
    let s = Atomic.get job.seats in
    s > 0 && (Atomic.compare_and_set job.seats s (s - 1) || admit job)
  in
  List.find_opt
    (fun job -> Atomic.get job.cursor < job.len && admit job)
    (Atomic.get jobs)

let rec worker () =
  let rec next () =
    match join () with
    | Some _ as job -> job
    | None ->
        if !live then begin
          Condition.wait work lock;
          next ()
        end
        else None
  in
  match Mutex.protect lock next with
  | Some job ->
      drain job;
      worker ()
  | None -> ()

let run_job seats len run =
  let job =
    {
      run;
      len;
      cursor = Atomic.make 0;
      finished = Atomic.make 0;
      seats = Atomic.make seats;
    }
  in
  Mutex.protect lock (fun () ->
      Atomic.set jobs (job :: Atomic.get jobs);
      Condition.broadcast work);
  drain job;
  let rec wait idle =
    if Atomic.get job.finished < len then
      match join () with
      | Some other ->
          drain other;
          wait 0
      | None ->
          if idle < 256 then Domain.cpu_relax () else Unix.sleepf 5e-5;
          wait (idle + 1)
  in
  wait 0;
  Mutex.protect lock (fun () ->
      Atomic.set jobs (List.filter (fun j -> j != job) (Atomic.get jobs)))

let map_result seats f xs =
  let n = Array.length xs in
  if seats = 0 || n <= 1 then Array.map (protect f) xs
  else begin
    let results = Array.make n (Error Exit) in
    let t0 = Clock.now () in
    let traced x =
      Counters.record h_queue_latency (Clock.elapsed t0);
      Trace.with_span ~cat:"pool" "pool.task" (fun () -> f x)
    in
    Counters.add "pool.tasks" n;
    run_job seats n (fun i -> results.(i) <- protect traced xs.(i));
    results
  end

let map pool f xs =
  Array.map (function Ok v -> v | Error e -> raise e) (map_result pool f xs)

let get domains =
  let d = max 1 (min max_width domains) in
  let want = min d hw - 1 in
  if Atomic.get nworkers < want then
    Mutex.protect lock (fun () ->
        while Atomic.get nworkers < want do
          workers := Domain.spawn worker :: !workers;
          Atomic.incr nworkers
        done);
  if hw > 1 then d - 1 else 0

let () =
  at_exit (fun () ->
      Mutex.protect lock (fun () ->
          live := false;
          Condition.broadcast work);
      List.iter Domain.join !workers)

(* Counters.reset is only race-free while no element is queued or
   running; let it verify that (see Counters.reset's tear semantics). *)
let () =
  Counters.register_quiescence_check "pool.quiescent" (fun () ->
      match Atomic.get jobs with [] -> true | _ -> false)
