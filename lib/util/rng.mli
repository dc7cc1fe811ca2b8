(** Deterministic pseudo-random generator (splitmix64).

    All randomness in the simulator flows through explicitly seeded
    instances, so every experiment is reproducible bit for bit. *)

type t

val create : seed:int -> t
(** A fresh generator with the given seed. *)

val int : t -> int -> int
(** [int t bound] draws a uniform integer in [\[0, bound)].
    @raise Invalid_argument if [bound <= 0]. *)

val bool : t -> float -> bool
(** [bool t p] is [true] with probability [p]. *)

val bytes : t -> int -> string
(** [bytes t n] draws [n] uniformly random bytes. *)

val split : t -> t
(** [split t] derives an independent generator, advancing [t]. *)
