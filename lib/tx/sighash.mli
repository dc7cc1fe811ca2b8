(** SIGHASH computation and flag-carrying signature encodings.

    - [All]: authorizes inputs, nLockTime and all outputs (the paper's
      f(TX) over \[TX\]).
    - [Anyprevout]: does not authorize inputs, making the transaction
      floating (BIP-118; f~ over (nLT, Output)).
    - [Anyprevout_single]: additionally authorizes only the same-index
      output, enabling fee attachment (Section 8).

    The flag rides in the last byte of the 73-byte signature. *)

type flag = All | Anyprevout | Anyprevout_single

val flag_of_byte : int -> flag option

val message : flag -> Tx.t -> input_index:int -> string
(** The message hashed and signed for a given flag. Memoized per flag
    on the body parts that flag authorizes (bodies are immutable). *)

val message_uncached : flag -> Tx.t -> input_index:int -> string
(** Recompute without the memo table (reference for property tests). *)

val sign :
  Daric_crypto.Schnorr.secret_key -> flag -> Tx.t -> input_index:int -> string
(** Sign a transaction for one input; 73-byte flagged signature. *)

val sign_message : Daric_crypto.Schnorr.secret_key -> flag -> string -> string
(** Sign an already-computed {!message} — protocol code exchanges
    signatures on transaction bodies before the final tx exists. *)

val verify_message : string -> string -> string -> bool
(** [verify_message pk_bytes msg sig_bytes]. *)

val sign_message_keyed : Daric_crypto.Keyctx.t -> flag -> string -> string
(** {!sign_message} through a per-key context — bit-identical output
    with the key-dependent work amortized across the channel. *)

val verify_message_pooled : string -> string -> string -> bool
(** {!verify_message} through {!Daric_crypto.Schnorr.verify_pooled}:
    keyed when the key's context is pool-resident, plain otherwise. *)

val check : Tx.t -> input_index:int -> pk_bytes:string -> sig_bytes:string -> bool
(** Full signature check for the script interpreter: extract the flag,
    recompute the matching message over the spending transaction,
    verify. *)
