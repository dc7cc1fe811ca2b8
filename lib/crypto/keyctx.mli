(** Per-public-key crypto contexts: amortized validation, shared
    encodings and a lazy fixed-base window table per key, behind a
    bounded domain-local pool with watchtower-arena-style pin/release
    residency. See {!Schnorr.verify_keyed} and friends for the
    operations consuming these. *)

type t

val create : ?sk:Group.scalar -> Group.element -> t
(** Standalone (un-pooled) context for a public key; [sk] makes it a
    signing context. Subgroup membership is checked once, here. *)

val pk : t -> Group.element
val is_valid : t -> bool
(** The context key's subgroup membership, as checked at build time. *)

val sk : t -> Group.scalar option
val pk_enc : t -> string
(** Cached [Group.encode_element (pk t)]. *)

val sk_enc : t -> string
(** Cached [Group.encode_scalar sk]; [""] for verify-only contexts. *)

val table : t -> Group.precomp
(** The key's window table, built on first use and retained on the
    context ({!table_bytes} bytes). *)

val has_table : t -> bool

val table_bytes : int
(** = {!Group.precomp_bytes}: retained bytes per built table. *)

(** {2 Bounded pool}

    Domain-local, like every other crypto cache. At most {!capacity} entries live per domain; pinned entries are
    never evicted, unpinned ones go least-recently-used. *)

val capacity : int

val peek : Group.element -> t option
(** Pool lookup that never inserts — the hot-path probe. *)

val find : ?sk:Group.scalar -> Group.element -> t
(** Pool lookup inserting on miss (evicting the LRU unpinned entry
    above capacity). [sk] upgrades a verify-only entry in place. *)

val pin : ?sk:Group.scalar -> Group.element -> bool
(** Refcounted pin (insert if absent): the entry becomes non-evictable
    until {!release}d as many times. Saturates at {!capacity} — a
    failed pin returns [false] and the key simply stays on the
    un-keyed paths, so mass channel opens retain a bounded pool. *)

val pin_ctx : t -> bool
(** {!pin} with an already-built context: the pool shares the object
    (and its lazy table) instead of building a second one. *)

val release : Group.element -> unit
(** Drop one pin; at zero the entry remains as an evictable cache
    entry. No-op for unknown keys. *)

type stats = { live : int; pinned : int; tables : int }

val stats : unit -> stats
(** Pool occupancy on the calling domain: total entries, pinned
    entries, entries with a built table. *)

val clear : unit -> unit
(** Drop all pooled contexts on the calling domain, pins included. *)
