(** Daric watchtower with O(1) per-channel storage: one fixed-size
    record per channel — the latest floating revocation transaction
    with both ANYPREVOUT signatures plus script-reconstruction
    parameters — *replaced* on every update, never accumulated.

    Records are retained packed: encoded bytes in a
    {!Daric_util.Arena} slot (a few large unscanned [Bytes] chunks the
    major GC never walks), decoded on demand. [unwatch] and the punish
    path reclaim the slot, so the heap tracks the guarded count, not
    the lifetime watch count. *)

module Tx = Daric_tx.Tx

type record = {
  channel_id : string;
  funding : Tx.outpoint;
  keys_a : Keys.pub;
  keys_b : Keys.pub;
  s0 : int;
  rel_lock : int;
  cash : int;
  client_role : Keys.role;
  revoked : int;  (** latest revoked state index (sn - 1) *)
  rev_body : Tx.t;
  sig_a : string;  (** revocation-branch signature, Alice position *)
  sig_b : string;
}

type t

val create : wid:string -> unit -> t

val wid : t -> string

val find_record : t -> string -> record option
(** The record currently guarding this channel, if any. O(1) lookup;
    the record is decoded on demand. *)

val watch : t -> record -> bool
(** Install or replace a channel's record (constant storage; an
    in-place arena overwrite when the new encoding fits the slot).
    Returns [false] — keeping the previous record — unless each of the
    record's two revocation-branch signatures is a 73-byte, canonically
    padded signature with a known SIGHASH flag that verifies, under the
    counter-party commit's revocation key, over the floating
    revocation body's message for that flag. *)

val watch_encoded : t -> record -> string -> bool
(** {!watch} given the record's {!encode_record} bytes, which the
    tower stores as they are — for a caller that journals the
    same encoding ({!Durable.watch}). *)

val restore_record : t -> string -> (unit, Daric_util.Codec.error) result
(** Install a journaled record payload (an {!encode_record} output)
    without re-checking its signatures — the WAL recovery path of
    {!Durable.recover}: the record was verified when first watched and
    the store is CRC-framed. The payload is decoded once and its bytes
    are copied into the arena as they are, with no re-encode. The
    channel is queued for a direct funding check at the next poll. *)

val unwatch : t -> channel_id:string -> unit
(** Remove the channel and reclaim its record storage (the arena slot
    joins the free list). *)

val punished : t -> string list
(** Channels on which the tower has reacted, newest first. *)

val punished_count : t -> int
(** [List.length (punished t)], in O(1). *)

val punished_mem : t -> string -> bool

val mark_punished : t -> string -> unit
(** Replay a journaled punishment during recovery: record the fact
    without re-posting (idempotent), reclaiming the channel's record
    exactly as the live punish path does. *)

val cursor : t -> int
(** Position in the ledger's spent-outpoint log up to which this tower
    has monitored. *)

val set_cursor : t -> int -> unit
(** Restore the spent-log cursor (recovery). *)

val fold_records : t -> (record -> 'a -> 'a) -> 'a -> 'a
(** Fold over every guarded record (decoded from the packed form). *)

val iter_record_blobs : t -> (string -> unit) -> unit
(** Iterate the {!encode_record} bytes of every guarded record, blitted
    straight from the arena, so snapshots never decode/re-encode. *)

val guarded_count : t -> int
(** Number of channels currently watched. O(1). *)

val record_bytes : record -> int
(** Serialized bytes retained per channel — constant in the number of
    updates (the Table 1 watchtower column). *)

val storage_bytes : t -> int

val arena_live_bytes : t -> int
(** Live packed-record bytes in the arena. *)

val arena_capacity_bytes : t -> int
(** Arena chunk bytes allocated from the heap — bounded by peak
    concurrent watches, not lifetime churn. *)

val record_codec : record Daric_util.Codec.t
(** The record format: the WAL watch payload and the record spans of a
    snapshot. Only canonical encodings decode. A decoded record is
    transient: the tower retains bytes and decodes on demand. *)

val encode_record : record -> string
(** [Codec.encode record_codec]. *)

val snapshot : t Daric_util.Codec.t
(** The tower's whole state: identity, every guarded record, the
    punished list, the fresh list and the spent-log cursor —
    O(guarded channels) bytes, each O(1). Encoding copies each record's
    bytes straight from the arena; decoding decodes each record once,
    for validation and its index fields, and installs the bytes it was
    read from, without signature re-verification. A duplicate channel
    record is refused. Re-encoding a decoded tower gives the same
    bytes up to record order. {!Persist} adds the blob header. *)

val end_of_round :
  t -> round:int -> ledger:Daric_chain.Ledger.t -> post:(Tx.t -> unit) -> unit
(** Complete and post the revocation transaction when a revoked
    counter-party commit appears, then reclaim the punished channel's
    record. Driven by the ledger's spent-outpoint log through a
    cursor: cost per round is O(newly watched records + newly spent
    outpoints), independent of the number of guarded channels and the
    chain length. *)

val record_for : Party.t -> id:string -> record option
(** Build the current record from a party's channel state; [None]
    until the first update (state 0 has nothing to revoke). *)
