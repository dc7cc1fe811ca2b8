(** Executable FPPW channel [Mirzaei et al. 2021] (simplified): a
    Lightning-style channel whose fair watchtower's collateral
    guarantees the client's funds. Commits carry two outputs (main +
    collateral) with 3-of-3 revocation branches among the parties and
    the tower; party and watchtower storage grow linearly; 6 signs /
    10 verifies / 1 exp per update (Table 3). *)

module Tx = Daric_tx.Tx
module Script = Daric_script.Script
module Ledger = Daric_chain.Ledger
module Keys = Daric_core.Keys
module Schnorr = Daric_crypto.Schnorr

type side = {
  main : Keys.keypair;
  pen : Keys.keypair;
  mutable rev_current : Keys.keypair;
  mutable received_rev : (int * Schnorr.secret_key) list;
}

type t = {
  ledger : Ledger.t;
  rng : Daric_util.Rng.t;
  cash : int;
  collateral : int;
  rel_lock : int;
  fund : Tx.t;
  wt : Keys.keypair;
  mutable wt_rev : (int * Keys.keypair) list;
  a : side;
  b : side;
  mutable sn : int;
  mutable commit_a : Tx.t;
  mutable ops : Scheme_intf.ops;  (** per party, Table 3 accounting *)
}

val main_script :
  t -> rev_a:Schnorr.public_key -> rev_b:Schnorr.public_key ->
  rev_w:Schnorr.public_key -> Script.t
(** The 185-byte main commit output script (the paper's H.5 listing
    quotes 184, omitting the split branch's final CHECKMULTISIG). *)

val collateral_script :
  t -> rev_a:Schnorr.public_key -> rev_b:Schnorr.public_key ->
  rev_w:Schnorr.public_key -> y_a:Schnorr.public_key ->
  y_b:Schnorr.public_key -> Script.t

val create :
  ?rel_lock:int -> ledger:Ledger.t -> rng:Daric_util.Rng.t -> bal_a:int ->
  bal_b:int -> unit -> t

val update : t -> bal_a:int -> bal_b:int -> Tx.t
(** Returns the superseded commit for adversarial replays. *)

val punish : t -> victim:[ `A | `B ] -> published:Tx.t -> Tx.t option
(** One transaction claiming both outputs of a revoked commit through
    the 3-of-3 revocation branches. *)

val commit_latest : t -> Tx.t
val funding_outpoint : t -> Tx.outpoint
val storage_bytes : t -> who:[ `A | `B ] -> int
val watchtower_bytes : t -> int

(** First-class {!Scheme_intf.SCHEME} instance driving this module
    through the generic lifecycle engine. *)
module Scheme : Scheme_intf.SCHEME
