(** Executable eltoo channel [Decker, Russell, Osuntokun 2018].

    States are (update, settlement) pairs; update transactions are
    floating with ANYPREVOUT|SINGLE signatures, so a later update can
    override any earlier one — and several channels' updates can be
    batched into one transaction, which the Section 6.1 delay attack
    exploits. There is no punishment, and party storage is O(1). *)

module Tx = Daric_tx.Tx
module Script = Daric_script.Script
module Ledger = Daric_chain.Ledger
module Keys = Daric_core.Keys

type party_keys = {
  main : Keys.keypair;
  upd : Keys.keypair;  (** static update key *)
  seed : string;  (** derives the per-state settlement keys *)
}

val gen_party_keys : Daric_util.Rng.t -> party_keys

val settlement_key : party_keys -> i:int -> Keys.keypair
(** Per-state settlement key derived from the seed — the one
    exponentiation per update of Table 3, and what keeps storage
    constant. *)

val update_script :
  s0:int -> i:int -> rel_lock:int -> ka:party_keys -> kb:party_keys -> Script.t
(** State-i update output script: CLTV ordering, then CSV-delayed
    settlement branch | immediate update branch. *)

type t = {
  ledger : Ledger.t;
  ka : party_keys;
  kb : party_keys;
  cash : int;
  s0 : int;
  rel_lock : int;
  fund : Tx.t;
  mutable sn : int;
  mutable update_tx : Tx.t;
  mutable update_sigs : string * string;
  mutable settlement : Tx.t;
  mutable settlement_sigs : string * string;
  mutable ops : Scheme_intf.ops;  (** cumulative, both parties *)
}

val create :
  ?s0:int -> ?rel_lock:int -> ledger:Ledger.t -> rng:Daric_util.Rng.t ->
  bal_a:int -> bal_b:int -> unit -> t

val balance_state : t -> bal_a:int -> bal_b:int -> Tx.output list

val update : t -> bal_a:int -> bal_b:int -> Tx.t * (string * string)
(** Off-chain update; returns the superseded (update body, signatures)
    pair so adversarial tests can model a cheater who kept it. *)

val complete_update :
  t -> Tx.t * (string * string) ->
  from:[ `Funding | `Update of int ] -> outpoint:Tx.outpoint -> Tx.t
(** Bind a floating update to the funding output or to an earlier
    update output (whose state index rebuilds the hidden script). *)

val complete_settlement :
  t -> Tx.t * (string * string) -> i:int -> outpoint:Tx.outpoint -> Tx.t

val funding_outpoint : t -> Tx.outpoint
val latest_update_completed :
  t -> from:[ `Funding | `Update of int ] -> outpoint:Tx.outpoint -> Tx.t
val latest_settlement_completed : t -> outpoint:Tx.outpoint -> Tx.t

val storage_bytes : t -> int
(** Constant: keys + seed + the latest update/settlement pair. *)

(** First-class {!Scheme_intf.SCHEME} instance driving this module
    through the generic lifecycle engine. *)
module Scheme : Scheme_intf.SCHEME
