(** SHA-256 (FIPS 180-4), pure OCaml. Verified against the NIST test
    vectors in the test suite. *)

val digest : string -> string
(** [digest s] is the 32-byte SHA-256 digest of [s]. *)

val hexdigest : string -> string
(** Hex rendering of {!digest}, for tests and display. *)

(** {2 Streaming interface}

    A resumable hash state, built for *midstates*: absorb a fixed
    prefix once, keep the state, and derive digests of
    prefix-plus-suffix messages without recompressing the prefix or
    concatenating strings. *)

type st

val st_create : unit -> st

val st_feed : st -> string -> int -> int -> unit
(** [st_feed st s off len] absorbs the slice [s\[off, off+len)].
    Whole 64-byte blocks are compressed straight from [s] (no copy);
    raises [Invalid_argument] on an out-of-bounds slice. *)

val st_digest : st -> (string * int * int) list -> string
(** [st_digest st parts] is the digest of everything fed to [st] so
    far followed by the given [(string, off, len)] slices. [st] is not
    mutated, so a cached midstate can be reused for any number of
    suffixes. *)
