(** GC pacing policy for the long-lived, large-heap runs (the scale
    sweeps, the memory probes, the CLI demos at big N).

    Owns the two knobs the harnesses used to poke ad hoc:

    - the minor heap: an update's allocations are almost all dead
      within the round, but the default 256k-word minor heap promotes
      a slice of them at every minor cycle, and at N=100k that
      promoted garbage is what the major GC spends the run collecting.
      1M words (8 MB — still cache-benign) lets most of it die young:
      ~15–20% more updates/sec at N >= 10k, flat below that.
    - draining major-GC debt before a one-shot timing: the incremental
      major GC owes marking work proportional to the live heap and
      pays it at allocation points inside whatever runs next, so an
      O(frauds) reaction poll can read ~8x slower at N=100k unless the
      outstanding cycle is finished first.

    {!quick_stats} snapshots the heap trajectory the benches report. *)

type stats = {
  top_heap_words : int;  (** largest major heap so far *)
  heap_words : int;  (** current major heap *)
  major_collections : int;
  minor_collections : int;
  promoted_words : float;  (** words copied minor -> major, lifetime *)
  minor_words : float;  (** words allocated in the minor heap, lifetime *)
}

let quick_stats () : stats =
  let q = Gc.quick_stat () in
  { top_heap_words = q.Gc.top_heap_words;
    heap_words = q.Gc.heap_words;
    major_collections = q.Gc.major_collections;
    minor_collections = q.Gc.minor_collections;
    promoted_words = q.Gc.promoted_words;
    minor_words = q.Gc.minor_words }

(** Pacing: a 1M-word minor heap, never shrunk below a larger explicit
    setting. *)
let minor_heap_words = 1_048_576

let pace () : unit =
  let g = Gc.get () in
  if g.Gc.minor_heap_size < minor_heap_words then
    Gc.set { g with Gc.minor_heap_size = minor_heap_words }

(** Finish the outstanding major cycle (and collect) so the next timed
    section measures its own work, not the collector's backlog. *)
let quiesce () : unit = Gc.full_major ()

(** [timed_quiesce ()] is {!quiesce} returning the wall-clock seconds
    one full major cycle costs right now — the per-cycle marking price
    of the current live heap, used to estimate the major-GC time share
    of a phase from its collection count. *)
let timed_quiesce () : float =
  let t0 = Sys.time () in
  quiesce ();
  Sys.time () -. t0
