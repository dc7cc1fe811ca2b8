(** Binary transaction codec (full, with witnesses), shared by the
    durable-state snapshots, the watchtower record codec, the protocol
    messages and the ledger's accepted-log compaction. Headerless —
    callers own their framing. Each value is a two-way
    {!Daric_util.Codec} description; decoding accepts only canonical
    encodings and never raises. *)

val output : Tx.output Daric_util.Codec.t
(** Refuses [Raw] scripts — bare scripts are not persisted. *)

val outpoint : Tx.outpoint Daric_util.Codec.t

val tx : Tx.t Daric_util.Codec.t

val packable : Tx.t -> bool
(** Whether {!tx} round-trips this transaction ([Raw] output scripts
    are not persisted — keep such entries live). *)

val encode_tx : Tx.t -> string

val decode_tx : string -> (Tx.t, Daric_util.Codec.error) result
(** The whole blob, trailing bytes refused. *)
