(** Executable Cerberus channel [Avarikioti et al., FC 2020]
    (simplified): Lightning-penalty style with a collateral-backed
    watchtower; both commit outputs are revocable by a 2-of-2 between
    the victim's per-state key and the tower's. Storage O(n);
    3 signs / 6 verifies / 0 exps per update (Table 3). *)

module Tx = Daric_tx.Tx
module Script = Daric_script.Script
module Ledger = Daric_chain.Ledger
module Keys = Daric_core.Keys
module Schnorr = Daric_crypto.Schnorr

type side = {
  main : Keys.keypair;
  delayed : Keys.keypair;
  mutable rev_current : Keys.keypair;
  mutable received_rev : (int * Schnorr.secret_key) list;
}

type t = {
  ledger : Ledger.t;
  rng : Daric_util.Rng.t;
  cash : int;
  rel_lock : int;
  fund : Tx.t;
  wt : Keys.keypair;
  mutable wt_rev : (int * Keys.keypair) list;
  a : side;
  b : side;
  mutable sn : int;
  mutable commit_a : Tx.t;
  mutable commit_b : Tx.t;
  mutable ops : Scheme_intf.ops;  (** per party, Table 3 accounting *)
}

val output_script :
  t -> rev_pk1:Schnorr.public_key -> rev_pk2:Schnorr.public_key ->
  delayed_pk:Schnorr.public_key -> Script.t
(** The 115-byte commit output script of Appendix H.6. *)

val create :
  ?rel_lock:int -> ledger:Ledger.t -> rng:Daric_util.Rng.t -> bal_a:int ->
  bal_b:int -> unit -> t

val update : t -> bal_a:int -> bal_b:int -> Tx.t * Tx.t

val punish : t -> victim:[ `A | `B ] -> published:Tx.t -> Tx.t option
(** Claim both outputs of a revoked commit in one transaction. *)

val commit_of : t -> [ `A | `B ] -> Tx.t
val funding_outpoint : t -> Tx.outpoint
val storage_bytes : t -> who:[ `A | `B ] -> int
val watchtower_bytes : t -> int

(** First-class {!Scheme_intf.SCHEME} instance driving this module
    through the generic lifecycle engine. *)
module Scheme : Scheme_intf.SCHEME
