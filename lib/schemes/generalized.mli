(** Executable Generalized channel [Aumayr et al., ASIACRYPT 2021]:
    punish-then-split with a single commit per state, using adaptor
    pre-signatures — publishing reveals the publisher's witness, which
    together with the revocation preimage enables punishment. Storage
    O(n), one exponentiation per update. *)

module Tx = Daric_tx.Tx
module Script = Daric_script.Script
module Ledger = Daric_chain.Ledger
module Keys = Daric_core.Keys
module Adaptor = Daric_crypto.Adaptor

type state_secrets = {
  y : Adaptor.witness;
  y_stmt : Adaptor.statement;
  rev_preimage : string;
}

type side = {
  main : Keys.keypair;
  punish : Keys.keypair;
  mutable current : state_secrets;
  mutable peer_stmt : Adaptor.statement;
  mutable peer_rev_hash : string;
  mutable pre_sig_from_peer : Adaptor.pre_signature;
  mutable received_preimages : (int * string) list;  (** O(n) growth *)
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
  mutable commit : Tx.t;
  mutable split : Tx.t;
  mutable split_sigs : string * string;
  mutable stmt_log : Adaptor.statement list;
      (** every publishing statement ever placed in a commit script *)
  mutable ops : Scheme_intf.ops;  (** per party, Table 3 accounting *)
}

val create :
  ?rel_lock:int -> ledger:Ledger.t -> rng:Daric_util.Rng.t -> bal_a:int ->
  bal_b:int -> unit -> t

(** What a cheater needs to replay an old state. *)
type old_state = {
  o_commit : Tx.t;
  o_index : int;
  o_presig_a : Adaptor.pre_signature;
  o_y_a : Adaptor.witness;
  o_script : Script.t;
}

val update : t -> bal_a:int -> bal_b:int -> old_state

val publish_commit_as_a : t -> old_state -> Tx.t
(** Publish a commit as party A: adapt B's pre-signature with A's
    witness (revealing it on chain) and attach A's own signature. *)

val punish_as_b : t -> published:Tx.t -> old_state -> Tx.t option
(** Extract A's witness from the on-chain signature, pair it with the
    revoked preimage, claim everything; [None] if not revoked. *)

val split_completed : t -> Tx.t
(** Honest settlement after the CSV delay. *)

val commit_completed_latest : t -> Tx.t
val funding_outpoint : t -> Tx.outpoint
val storage_bytes : t -> who:[ `A | `B ] -> int

(** First-class {!Scheme_intf.SCHEME} instance driving this module
    through the generic lifecycle engine. *)
module Scheme : Scheme_intf.SCHEME
