(** SHA-256 (FIPS 180-4).

    The block compression runs on the x86 SHA extensions (SHA-NI) where
    the CPU has them, through a C kernel, and in OCaml everywhere else.
    The path is chosen once, at module initialisation; both produce the
    same bits. The OCaml compression is the fallback and the oracle:
    the test suite checks the kernel against it on random inputs, and
    both paths against the NIST vectors. *)

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

(** {2 Paths}

    For the differential tests and the benchmark baseline. *)

val accelerated : bool
(** [true] when this CPU has SHA-NI, SSSE3 and SSE4.1 and every digest
    above runs the C kernel; [false] when they run the OCaml
    compression. *)

val digest_portable : string -> string
(** {!digest} on the OCaml compression, whatever the CPU: the
    reference the kernel is tested against. *)

val compress_blocks : int array -> string -> int -> int -> unit
(** [compress_blocks h s off n] compresses the [n] 64-byte blocks of
    [s] from [off] into the chaining value [h] (eight words, each
    below 2{^32}), on the selected path. Raises [Invalid_argument] unless [h] has eight
    elements and the blocks lie inside [s]. *)

val compress_blocks_portable : int array -> string -> int -> int -> unit
(** {!compress_blocks} on the OCaml compression. *)
