(** Binary transaction codec (full, with witnesses), shared by the
    durable-state snapshots, the watchtower record codec and the
    ledger's accepted-log compaction. Headerless — callers own their
    framing. Malformed input raises {!Bad_blob} or
    {!Daric_util.Byteio.Reader.Truncated}; typed-error callers wrap
    them. Decoded strings (txids, hashes, witness data) are interned
    through {!Daric_util.Intern}. *)

module W = Daric_util.Byteio.Writer
module R = Daric_util.Byteio.Reader

exception Bad_blob of string
(** The same exception as {!Daric_util.Byteio.Reader.Malformed}, so one
    handler covers the reader's and the codec's malformed-input errors.
    Only canonical encodings decode. *)

val write_spk : W.t -> Tx.spk -> unit

val read_spk : R.t -> Tx.spk
(** Raises on [Raw] — bare scripts are not persisted. *)

val write_output : W.t -> Tx.output -> unit
val read_output : R.t -> Tx.output
val write_input : W.t -> Tx.input -> unit
val read_input : R.t -> Tx.input
val write_witness_elt : W.t -> Tx.witness_elt -> unit
val read_witness_elt : R.t -> Tx.witness_elt

val write_list : W.t -> (W.t -> 'a -> unit) -> 'a list -> unit
val read_list : R.t -> (R.t -> 'a) -> 'a list
val write_opt : W.t -> (W.t -> 'a -> unit) -> 'a option -> unit
val read_opt : R.t -> (R.t -> 'a) -> 'a option

val opcode_tag : Daric_script.Script.op -> int
(** Raises {!Bad_blob} on [Push]/[Num]/[Small] (not plain opcodes). *)

val opcode_of_tag : int -> Daric_script.Script.op

val write_tx : W.t -> Tx.t -> unit
val read_tx : R.t -> Tx.t

val packable : Tx.t -> bool
(** Whether {!write_tx} round-trips this transaction ([Raw] output
    scripts are not persisted — keep such entries live). *)

val encode_tx : Tx.t -> string
val decode_tx_exn : string -> Tx.t
