(** Economic ledger mode: a fee-market mempool in front of the ledger,
    with the 1 sat/vB minimum relay fee, the 100,000-vbyte standardness
    cap, BIP-125 replace-by-fee, and one capacity-limited block per
    round — the machinery the Section 6.1 attack depends on. *)

module Tx = Daric_tx.Tx

type submit_error =
  | Too_large
  | Feerate_below_minimum
  | Unknown_input of Tx.outpoint
  | Duplicate_input of Tx.outpoint
      (** the transaction lists this outpoint as input more than once *)
  | Negative_fee
  | Rbf_insufficient_fee
      (** conflicts with pooled transactions it cannot displace *)

val submit_error_to_string : submit_error -> string

type t

val create : ?block_vbytes:int -> ledger:Ledger.t -> unit -> t
(** [block_vbytes] (default 1,000,000) caps each block. *)

val ledger : t -> Ledger.t

val submit : t -> Tx.t -> (unit, submit_error) result
(** Standardness checks against the confirmed UTXO view (all inputs
    must be confirmed), then BIP-125: a replacement must pay more than
    everything it conflicts with plus relay fee for its own size, at a
    fee rate at least as high. *)

val tick : t -> Tx.t list
(** Advance one round and confirm a block: the highest-fee-rate
    transactions that still validate, up to the block capacity. *)

val pool_size : t -> int
val total_fees_collected : t -> int
