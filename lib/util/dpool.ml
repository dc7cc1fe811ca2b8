(** A small shared domain pool for data-parallel verification work.

    Sizing: the [DPOOL_DOMAINS] environment variable when set (>= 1),
    otherwise [Domain.recommended_domain_count ()]. A count of 1 means
    every entry point runs sequentially on the calling domain — the
    fallback path with byte-identical results, exercised directly by
    the differential tests via {!with_domains}.

    Workers are spawned lazily on first parallel use and torn down by
    an [at_exit] hook, so programs that never cross the parallel
    threshold never pay a domain spawn. Work submitted to the pool must
    only touch domain-safe state (the crypto/tx memo caches are
    domain-local for exactly this reason). *)

let forced : int option ref = ref None

let env_count () : int option =
  match Sys.getenv_opt "DPOOL_DOMAINS" with
  | None -> None
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n when n >= 1 -> Some n
      | _ -> None)

(** Logical parallelism: forced override, then [DPOOL_DOMAINS], then
    the runtime's recommendation. *)
let count () : int =
  match !forced with
  | Some n -> max 1 n
  | None -> (
      match env_count () with
      | Some n -> n
      | None -> Domain.recommended_domain_count ())

(** [with_domains n f] runs [f] with the pool's logical count forced to
    [n] (test hook for sequential-vs-parallel differentials). *)
let with_domains (n : int) (f : unit -> 'a) : 'a =
  let prev = !forced in
  forced := Some n;
  Fun.protect ~finally:(fun () -> forced := prev) f

(* ------------------------------------------------------------------ *)
(* Worker pool.                                                        *)

type task = unit -> unit

let mutex = Mutex.create ()
let have_work = Condition.create ()
let queue : task Queue.t = Queue.create ()
let workers : unit Domain.t list ref = ref []
let stopping = ref false

(* Nested parallelism guard: a worker that somehow re-enters a parallel
   entry point just runs its share sequentially. *)
let in_worker : bool Domain.DLS.key = Domain.DLS.new_key (fun () -> false)

let worker_loop () : unit =
  Domain.DLS.set in_worker true;
  let rec next () =
    Mutex.lock mutex;
    let rec wait () =
      if !stopping then begin
        Mutex.unlock mutex;
        None
      end
      else if Queue.is_empty queue then begin
        Condition.wait have_work mutex;
        wait ()
      end
      else begin
        let t = Queue.pop queue in
        Mutex.unlock mutex;
        Some t
      end
    in
    match wait () with
    | None -> ()
    | Some t ->
        (try t () with _ -> ());
        next ()
  in
  next ()

(* Join all workers; registered [at_exit] with the first worker. *)
let shutdown () : unit =
  Mutex.lock mutex;
  stopping := true;
  Condition.broadcast have_work;
  Mutex.unlock mutex;
  List.iter Domain.join !workers;
  workers := [];
  stopping := false

(* Grow the pool to [n] workers (callers hold no locks). *)
let ensure_workers (n : int) : unit =
  let cur = List.length !workers in
  if cur < n then begin
    if cur = 0 then at_exit shutdown;
    for _ = cur + 1 to n do
      workers := Domain.spawn worker_loop :: !workers
    done
  end

let submit (t : task) : unit =
  Mutex.lock mutex;
  Queue.push t queue;
  Condition.signal have_work;
  Mutex.unlock mutex

(* ------------------------------------------------------------------ *)
(* Parallel map over contiguous chunks.                                *)

(** [map_chunks f xs] splits [xs] into [count ()] contiguous slices and
    applies [f] to each slice — remote slices on pool workers, one on
    the calling domain — returning the per-slice results in slice
    order. With a count of 1 (or a tiny input, or when called from a
    pool worker) this is exactly [[| f xs |]]: the sequential
    fallback. [f] must be safe to run on another domain. *)
let map_chunks (f : 'a array -> 'b) (xs : 'a array) : 'b array =
  let n = Array.length xs in
  let k = min (count ()) (max 1 n) in
  if k <= 1 || n <= 1 || Domain.DLS.get in_worker then [| f xs |]
  else begin
    ensure_workers (k - 1);
    let chunk = (n + k - 1) / k in
    let slices =
      Array.init k (fun i ->
          let lo = i * chunk in
          Array.sub xs lo (min chunk (n - lo)))
    in
    let results : 'b option array = Array.make k None in
    let failure : exn option ref = ref None in
    let remaining = ref (k - 1) in
    let done_mutex = Mutex.create () in
    let all_done = Condition.create () in
    for i = 1 to k - 1 do
      submit (fun () ->
          (try results.(i) <- Some (f slices.(i))
           with e ->
             Mutex.lock done_mutex;
             if !failure = None then failure := Some e;
             Mutex.unlock done_mutex);
          Mutex.lock done_mutex;
          decr remaining;
          if !remaining = 0 then Condition.signal all_done;
          Mutex.unlock done_mutex)
    done;
    results.(0) <- Some (f slices.(0));
    Mutex.lock done_mutex;
    while !remaining > 0 do
      Condition.wait all_done done_mutex
    done;
    Mutex.unlock done_mutex;
    (match !failure with Some e -> raise e | None -> ());
    Array.map Option.get results
  end

(** [all_chunks f xs]: [f] holds on every chunk (conjunction of
    {!map_chunks}). *)
let all_chunks (f : 'a array -> bool) (xs : 'a array) : bool =
  Array.for_all Fun.id (map_chunks f xs)
