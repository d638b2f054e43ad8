(** Multicore work pool on OCaml 5 domains.

    A small chunking pool built on [Domain] + [Mutex] + [Condition] only
    (no Domainslib): workers pull task indices from a shared counter, so
    uneven tasks balance automatically, and every result is written back
    at its submission index, so gathering is deterministic — the output
    order never depends on domain scheduling.  The experiment suite, the
    variability Monte Carlo and the bench harness all parallelise through
    this module; callers are responsible for submitting tasks that do not
    share mutable state (every simulation in the toolkit owns its RNG and
    engine, so the builders qualify). *)

type t = {
  jobs : int;  (** total workers, including the submitting domain *)
  mutex : Mutex.t;
  work_ready : Condition.t;  (** signalled when a batch is posted or at shutdown *)
  work_done : Condition.t;  (** signalled when a batch's last task completes *)
  mutable batch : (int -> unit) option;  (** current batch: run task [i] *)
  mutable task_count : int;
  mutable next : int;  (** next unclaimed task index *)
  mutable unfinished : int;  (** tasks not yet completed in the batch *)
  mutable stop : bool;
  mutable workers : unit Domain.t list;
}

(* Claim-and-run loop shared by workers and the submitting domain.  Must
   be entered with [pool.mutex] held; returns with it held. *)
let rec drain_batch pool run =
  if pool.next < pool.task_count then begin
    let i = pool.next in
    pool.next <- pool.next + 1;
    Mutex.unlock pool.mutex;
    run i;
    Mutex.lock pool.mutex;
    pool.unfinished <- pool.unfinished - 1;
    if pool.unfinished = 0 then begin
      pool.batch <- None;
      Condition.broadcast pool.work_done
    end;
    drain_batch pool run
  end

let worker pool =
  Mutex.lock pool.mutex;
  let rec wait () =
    if not pool.stop then begin
      (match pool.batch with
      | Some run when pool.next < pool.task_count -> drain_batch pool run
      | _ -> Condition.wait pool.work_ready pool.mutex);
      wait ()
    end
  in
  wait ();
  Mutex.unlock pool.mutex

(** [env_jobs ()] — worker count requested via the [AMB_JOBS] environment
    variable, if set to a positive integer. *)
let env_jobs () =
  match Sys.getenv_opt "AMB_JOBS" with
  | None -> None
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some n when n >= 1 -> Some n
    | _ -> None)

(** [default_jobs ()] — [AMB_JOBS] when set, otherwise the runtime's
    recommended domain count. *)
let default_jobs () =
  match env_jobs () with
  | Some n -> n
  | None -> Domain.recommended_domain_count ()

(** [create ~jobs] — pool of [jobs] workers ([jobs - 1] spawned domains
    plus the submitting domain).  Raises [Invalid_argument] below 1. *)
let create ~jobs =
  if jobs < 1 then invalid_arg "Domain_pool.create: need at least one worker";
  let pool =
    {
      jobs;
      mutex = Mutex.create ();
      work_ready = Condition.create ();
      work_done = Condition.create ();
      batch = None;
      task_count = 0;
      next = 0;
      unfinished = 0;
      stop = false;
      workers = [];
    }
  in
  pool.workers <- List.init (jobs - 1) (fun _ -> Domain.spawn (fun () -> worker pool));
  pool

let jobs pool = pool.jobs

(** [shutdown pool] — stop and join the worker domains.  Idempotent. *)
let shutdown pool =
  Mutex.lock pool.mutex;
  pool.stop <- true;
  Condition.broadcast pool.work_ready;
  Mutex.unlock pool.mutex;
  List.iter Domain.join pool.workers;
  pool.workers <- []

(* Batches [run] has spread across more than one worker, process-wide. *)
let spread_batches = Atomic.make 0

let parallel_batches () = Atomic.get spread_batches

(** [run pool tasks] — execute every task (in parallel across the pool)
    and gather the results in submission order.  The first exception, by
    task index, is re-raised after the whole batch settles. *)
let run pool (tasks : (unit -> 'a) array) : 'a array =
  let n = Array.length tasks in
  if n = 0 then [||]
  else if pool.jobs = 1 || n = 1 then Array.map (fun task -> task ()) tasks
  else begin
    let cells = Array.make n None in
    let run_task i =
      let outcome = try Ok (tasks.(i) ()) with e -> Error e in
      cells.(i) <- Some outcome
    in
    Mutex.lock pool.mutex;
    if pool.batch <> None || pool.unfinished > 0 then begin
      Mutex.unlock pool.mutex;
      invalid_arg "Domain_pool.run: pool already running a batch"
    end;
    Atomic.incr spread_batches;
    pool.batch <- Some run_task;
    pool.task_count <- n;
    pool.next <- 0;
    pool.unfinished <- n;
    Condition.broadcast pool.work_ready;
    (* The submitting domain works the batch too, then waits for
       stragglers claimed by other workers. *)
    drain_batch pool run_task;
    while pool.unfinished > 0 do
      Condition.wait pool.work_done pool.mutex
    done;
    Mutex.unlock pool.mutex;
    Array.iter
      (function Some (Error e) -> raise e | _ -> ())
      cells;
    Array.map (function Some (Ok v) -> v | _ -> assert false) cells
  end

(** [with_pool ~jobs f] — run [f] over a transient pool, always shutting
    the workers down. *)
let with_pool ~jobs f =
  let pool = create ~jobs in
  Fun.protect ~finally:(fun () -> shutdown pool) (fun () -> f pool)

(** [map_list ?jobs f xs] — [List.map f xs] with the applications spread
    across [jobs] workers; result order matches [xs]. *)
let map_list ?jobs f xs =
  let jobs = match jobs with Some j -> j | None -> default_jobs () in
  match xs with
  | [] -> []
  | [ x ] -> [ f x ]
  | _ when jobs <= 1 -> List.map f xs
  | _ ->
    let tasks = Array.map (fun x () -> f x) (Array.of_list xs) in
    with_pool ~jobs (fun pool -> Array.to_list (run pool tasks))

(** [map_array_chunked ?jobs ?chunk f arr] — [Array.map f arr] with the
    index space split into [chunk]-sized blocks (default: ~4 blocks per
    worker); element order is preserved. *)
let map_array_chunked ?jobs ?chunk f arr =
  let jobs = match jobs with Some j -> j | None -> default_jobs () in
  let n = Array.length arr in
  if n = 0 then [||]
  else if jobs <= 1 then Array.map f arr
  else begin
    let chunk =
      match chunk with
      | Some c when c >= 1 -> c
      | Some _ -> invalid_arg "Domain_pool.map_array_chunked: non-positive chunk"
      | None -> Stdlib.max 1 (n / (jobs * 4))
    in
    let chunks = (n + chunk - 1) / chunk in
    let tasks =
      Array.init chunks (fun c () ->
          let lo = c * chunk in
          let hi = Stdlib.min n (lo + chunk) in
          Array.init (hi - lo) (fun k -> f arr.(lo + k)))
    in
    let pieces = with_pool ~jobs (fun pool -> run pool tasks) in
    Array.concat (Array.to_list pieces)
  end
