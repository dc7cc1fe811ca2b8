(** Executable Lightning channel (penalty-based) [Poon, Dryja 2016]:
    duplicated commits with revocable, CSV-delayed to_local outputs;
    per-state revocation secrets accumulate — the O(n) storage of
    Table 1. *)

module Tx = Daric_tx.Tx
module Script = Daric_script.Script
module Ledger = Daric_chain.Ledger
module Keys = Daric_core.Keys
module Schnorr = Daric_crypto.Schnorr

type party_keys = { main : Keys.keypair; delayed : Keys.keypair }

val to_local_script :
  revocation_pk:Schnorr.public_key -> delayed_pk:Schnorr.public_key ->
  rel_lock:int -> Script.t
(** The BOLT-3 to_local shape:
    IF <rev_pk> ELSE <T> CSV DROP <delayed_pk> ENDIF CHECKSIG. *)

type revocation = { index : int; secret : Schnorr.secret_key }

type side = {
  keys : party_keys;
  mutable rev_current : Keys.keypair;
  mutable received_secrets : revocation list;  (** O(n) growth *)
  mutable commit : Tx.t;
}

type t = {
  ledger : Ledger.t;
  rng : Daric_util.Rng.t;
  cash : int;
  rel_lock : int;
  fund : Tx.t;
  a : side;
  b : side;
  mutable sn : int;
  mutable ops : Scheme_intf.ops;  (** per party, Table 3 accounting *)
}

val create :
  ?rel_lock:int -> ledger:Ledger.t -> rng:Daric_util.Rng.t -> bal_a:int ->
  bal_b:int -> unit -> t

val update : t -> bal_a:int -> bal_b:int -> Tx.t * Tx.t
(** New revocation keys, new commits, old secrets exchanged; returns
    the superseded commit pair for adversarial replays. *)

val penalty :
  t -> victim:[ `A | `B ] -> published:Tx.t -> revoked_index:int -> Tx.t option
(** The victim claims the cheater's to_local output with the revealed
    secret; [None] if the state was never revoked. *)

val commit_of : t -> [ `A | `B ] -> Tx.t
val sweep_to_local : t -> who:[ `A | `B ] -> published:Tx.t -> Tx.t
val funding_outpoint : t -> Tx.outpoint

val storage_bytes : t -> who:[ `A | `B ] -> int
val watchtower_bytes : t -> int

(** First-class {!Scheme_intf.SCHEME} instance driving this module
    through the generic lifecycle engine. *)
module Scheme : Scheme_intf.SCHEME
