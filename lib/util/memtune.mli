(** GC pacing policy: one owner for the minor-heap sizing the
    harnesses need and for draining major-GC debt before one-shot
    timings, with a [Gc.quick_stat] snapshot type for heap-trajectory
    reporting. *)

type stats = {
  top_heap_words : int;  (** largest major heap so far *)
  heap_words : int;  (** current major heap *)
  major_collections : int;
  minor_collections : int;
  promoted_words : float;  (** words copied minor -> major, lifetime *)
  minor_words : float;  (** words allocated in the minor heap, lifetime *)
}

val quick_stats : unit -> stats
(** Cheap counters from [Gc.quick_stat] (no heap walk). *)

val pace : unit -> unit
(** Apply the pacing policy: raise the minor heap to at least 1M words
    (8 MB; an explicitly larger current setting is kept). Idempotent;
    no-op when nothing would change. *)

val quiesce : unit -> unit
(** Finish the outstanding major cycle and collect, so a following
    timed section measures its own work rather than the collector's
    backlog. *)

val timed_quiesce : unit -> float
(** {!quiesce}, returning its CPU seconds — the current per-cycle
    cost of marking the live heap. *)
