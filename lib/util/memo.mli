(** Bounded memo tables for pure functions: one domain-local table per
    memoized function, reset wholesale when a miss finds it full. *)

val make : cap:int -> ('k -> 'v) -> 'k -> 'v
(** [make ~cap f] is [f], memoized on structurally compared keys. Between
    resets [f] runs once per key, and a hit returns the value [f]
    returned for that key. *)
