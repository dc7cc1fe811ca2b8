(* Monotonic time, the host probe, and the order statistics every
   metric is reported with.

   On a virtual machine whose cores are shared with other tenants, the
   speed of branchy code moves between discrete levels (up to 1.7x apart
   on the 2-vCPU machine of METRICS.md), switching every 0.5-3 s, and a
   whole-run figure depends on how much of the run fell in slow
   periods. So while it records samples, a run also times a fixed
   reference loop every [probe_every_ns]: 256 lookups in a 64-entry
   hash table, cache-warm, which allocate nothing and share nothing with
   the program, so their time follows the host alone. (A multiply chain
   would not do: on that machine ALU-bound loops keep their speed while
   hashing code like the program's slows down.) Every 100 ms window
   gets the median probe time as its host level, and the reported
   figures pool the samples taken while the host ran at its fastest
   level. The selection looks at the host only, never at the program's
   own timings, so every program cost, tails included, counts in
   proportion. *)

let now_ns () : int = Int64.to_int (Monotonic_clock.now ())
let seconds_since (t0 : int) : float = float_of_int (now_ns () - t0) *. 1e-9

(* Growable int buffer. *)
type buf = { mutable a : int array; mutable n : int }

let buf () = { a = Array.make 1024 0; n = 0 }

let add (b : buf) (v : int) : unit =
  if b.n = Array.length b.a then begin
    let d = Array.make (2 * b.n) 0 in
    Array.blit b.a 0 d 0 b.n;
    b.a <- d
  end;
  b.a.(b.n) <- v;
  b.n <- b.n + 1

(* ---- the host probe --------------------------------------------------- *)

let probe_every_ns = 2_000_000
let window_ns = 100_000_000
let probe_at = buf ()
let probe_ns = buf ()
let last_probe = ref min_int

let probe_table =
  let t = Hashtbl.create 64 in
  for i = 0 to 63 do
    Hashtbl.replace t i i
  done;
  t

let reference () : unit =
  let n = ref 0 in
  for i = 1 to 256 do
    if Hashtbl.mem probe_table ((i * 3) land 63) then incr n
  done;
  ignore (Sys.opaque_identity !n)

(* The second of two back-to-back loops is timed: the first brings the
   table back into the cache the program's work just used. *)
let probe () : unit =
  reference ();
  let t0 = now_ns () in
  reference ();
  let t1 = now_ns () in
  add probe_at t1;
  add probe_ns (t1 - t0);
  last_probe := t1

let maybe_probe (t : int) : unit = if t - !last_probe >= probe_every_ns then probe ()

(* Enough probes to fix the level of the current window, around work
   that records no samples for a while. *)
let probe_burst () : unit =
  for _ = 1 to 3 do
    probe ()
  done

(* ---- samples ---------------------------------------------------------- *)

(* Nanosecond durations with the time each one ended. *)
type samples = { d : buf; at : buf }

let samples () = { d = buf (); at = buf () }

let record_at (s : samples) ~(at : int) (d : int) : unit =
  add s.d d;
  add s.at at;
  maybe_probe at

(* The sample from [t0] to now. *)
let record (s : samples) (t0 : int) : unit =
  let t = now_ns () in
  record_at s ~at:t (t - t0)

let count (s : samples) = s.d.n

(* Nearest-rank quantile of a sorted array; 0 when empty. *)
let rank (a : float array) (q : float) : float =
  let n = Array.length a in
  if n = 0 then 0.
  else a.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1)))

let quantile_floats (l : float list) (q : float) : float =
  let a = Array.of_list l in
  Array.sort compare a;
  rank a q

let median_floats (l : float list) : float =
  match List.sort compare l with
  | [] -> 0.
  | sorted ->
      let a = Array.of_list sorted in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let durations (s : samples) (keep : int -> bool) : float list =
  List.filter_map
    (fun i -> if keep i then Some (float_of_int s.d.a.(i)) else None)
    (List.init s.d.n Fun.id)

(* Every sample's q-quantile. *)
let quantile (s : samples) (q : float) : float = quantile_floats (durations s (fun _ -> true)) q

(* ---- host levels ------------------------------------------------------ *)

(* The host level of each probe window (median probe time, from at least
   3 probes; infinite when unknown). *)
type levels = { origin : int; level : float array; fastest : float }

let levels () : levels =
  if probe_at.n = 0 then { origin = 0; level = [||]; fastest = Float.infinity }
  else begin
    let origin = probe_at.a.(0) in
    let nw = ((probe_at.a.(probe_at.n - 1) - origin) / window_ns) + 1 in
    let per = Array.make nw [] in
    for i = 0 to probe_at.n - 1 do
      let w = (probe_at.a.(i) - origin) / window_ns in
      per.(w) <- float_of_int probe_ns.a.(i) :: per.(w)
    done;
    let level =
      Array.map (fun ds -> if List.length ds >= 3 then median_floats ds else Float.infinity) per
    in
    { origin; level; fastest = Array.fold_left Float.min Float.infinity level }
  end

(* The slower host level of the windows [t0] and [t1] fall in. *)
let level_over (h : levels) (t0 : int) (t1 : int) : float =
  let at t =
    let w = (t - h.origin) / window_ns in
    if t < h.origin || w >= Array.length h.level then Float.infinity else h.level.(w)
  in
  Float.max (at t0) (at t1)

(* Which of the items with the given host levels ran on the fastest
   host: levels within [fast_margin] of the run's fastest window,
   widened to the twentieth of the items (at least [min_items]) with
   the fastest levels when fewer qualify. Samples come in correlated
   groups (a fraud round's 100), so a fixed small count is not enough. *)
let fast_margin = 1.15
let min_items = 10

let fast_host (h : levels) (ls : float array) : float -> bool =
  let sorted = Array.copy ls in
  Array.sort compare sorted;
  let n = Array.length sorted in
  let k = min n (max min_items (n / 20)) in
  let limit = if k = 0 then h.fastest else Float.max (fast_margin *. h.fastest) sorted.(k - 1) in
  fun l -> l <= limit

(* The q-quantile of the samples taken on the fastest host. *)
let quiet_quantile (h : levels) (s : samples) (q : float) : float =
  let ls = Array.init s.d.n (fun i -> level_over h (s.at.a.(i) - s.d.a.(i)) s.at.a.(i)) in
  let fast = fast_host h ls in
  quantile_floats (durations s (fun i -> fast ls.(i))) q

(* ---- rates ------------------------------------------------------------ *)

(* Completions over consecutive windows of about [window_ns]. *)
type meter = {
  mutable start : int;
  mutable n : int;
  mutable windows : (int * int * int) list;  (** start, end, completions *)
}

let meter () = { start = now_ns (); n = 0; windows = [] }

let completed ?(k = 1) (m : meter) : unit =
  m.n <- m.n + k;
  let t = now_ns () in
  if t - m.start >= window_ns then begin
    m.windows <- (m.start, t, m.n) :: m.windows;
    m.start <- t;
    m.n <- 0
  end

(* Drop the open window, e.g. across a pause in the work. *)
let restart (m : meter) : unit =
  m.start <- now_ns ();
  m.n <- 0

(* Completions per second over the windows that ran on the fastest
   host. *)
let quiet_rate (h : levels) (m : meter) : float =
  let ws = Array.of_list m.windows in
  let ls = Array.map (fun (t0, t1, _) -> level_over h t0 t1) ws in
  let fast = fast_host h ls in
  let n = ref 0 and ns = ref 0 in
  Array.iteri
    (fun i (t0, t1, k) ->
      if fast ls.(i) then begin
        n := !n + k;
        ns := !ns + (t1 - t0)
      end)
    ws;
  if !ns = 0 then 0. else float_of_int !n *. 1e9 /. float_of_int !ns

(* Median of [reps] timed repetitions of [block], each covering [n]
   operations: nanoseconds per operation. *)
let ns_per_op ~(reps : int) ~(n : int) (block : int -> unit) : float =
  median_floats
    (List.init reps (fun r ->
         let t0 = now_ns () in
         block r;
         float_of_int (now_ns () - t0) /. float_of_int n))
