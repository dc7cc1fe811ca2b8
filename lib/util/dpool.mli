(** Shared domain pool for data-parallel verification work.

    Sized by [DPOOL_DOMAINS] (when set, >= 1), else
    [Domain.recommended_domain_count ()]. Count 1 = sequential
    fallback on the calling domain, byte-identical results. Workers
    spawn lazily and are joined at exit. Entry points are meant to be
    called from one domain at a time (the simulation main loop); work
    handed to the pool must only touch domain-safe state. *)

val count : unit -> int
(** Current logical parallelism. *)

val with_domains : int -> (unit -> 'a) -> 'a
(** Run with the count forced (differential-test hook). *)

val map_chunks : ('a array -> 'b) -> 'a array -> 'b array
(** Split into [count ()] contiguous slices, apply the function to
    each slice across domains, return per-slice results in order.
    Sequential (one slice) when the count is 1 or the input is tiny. *)

val all_chunks : ('a array -> bool) -> 'a array -> bool
(** Conjunction of {!map_chunks}. *)
