(** Multi-hop HTLC payments over a path of Daric channels: lock an
    HTLC output into each channel's split transaction hop by hop
    towards the receiver, then settle back once the preimage is
    revealed. No state duplication means each HTLC appears exactly
    once per channel. *)

module Tx = Daric_tx.Tx
module Party = Daric_core.Party
module Driver = Daric_core.Driver

type hop = { channel_id : string; payer : Party.t; payee : Party.t }

type outcome = { delivered : bool; hops_locked : int; hops_settled : int }

val locked_state :
  hop -> amount:int -> digest:string -> timeout:int -> Tx.output list
(** The hop's channel state carrying both balances plus the HTLC. *)

val pay :
  Driver.t -> route:hop list -> amount:int -> preimage:string -> timeout:int ->
  outcome
(** Run the two-phase payment along [route] (sender side first); each
    lock/settle is a full Daric channel update. *)
