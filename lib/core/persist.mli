(** Durable state codecs: versioned binary snapshots of a party's
    per-channel state and of a watchtower's full guarded-set state.

    The channel blob IS the party's entire per-channel storage —
    constant-size in the number of updates — and a restarted party can
    still update, close and punish from it. Only quiescent channels
    (no update/closure in flight) are persisted. The tower snapshot is
    the at-rest half of {!Durable}: snapshot every K rounds, journal
    deltas in a {!Daric_util.Wal} between snapshots, recover via
    {!restore_tower} + replay. Each body is one two-way
    {!Daric_util.Codec} description, so its decoder accepts only what
    its encoder writes. *)

type error = Bad_magic | Bad_version | Truncated | Bad_field of string
(** Decoding failures: wrong leading magic, unknown format version,
    input exhausted mid-field, or a structurally invalid field
    (including trailing bytes, duplicate channel ids and
    not-quiescent encode refusals). *)

val error_to_string : error -> string

val codec_error : Daric_util.Codec.error -> error
(** [Truncated] as {!Truncated}, anything else as {!Bad_field}: for
    the headerless payloads (WAL records) decoded straight with a
    {!Daric_util.Codec}. *)

val encode_chan : Party.chan -> (string, error) result
(** Serialize a quiescent channel; [Error (Bad_field _)] names the
    blocking phase when an update or closure is in flight. *)

val restore_chan : Party.t -> string -> (unit, error) result
(** Restore a channel into a party that does not already track it.
    Rejects malformed, truncated or padded blobs. *)

val blob_size : Party.chan -> (int, error) result
(** Size of the encoded channel blob in bytes. *)

val encode_tower : Watchtower.t -> string
(** Full tower snapshot: identity, every guarded record, the punished
    list, the fresh list and the spent-log cursor — O(guarded
    channels) bytes, each O(1). *)

val restore_tower : string -> (Watchtower.t, error) result
(** Rebuild a tower from {!encode_tower} output ({!Watchtower.snapshot}
    behind the header): each record is decoded once, for validation
    and its index fields, and the bytes it was read from are installed
    into the arena as they are. A duplicate channel record or a cursor
    that does not fit a non-negative [int] is [Bad_field]; never
    raises. [encode_tower (restore_tower b) = b] up to record order. *)
