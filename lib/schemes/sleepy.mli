(** Executable Sleepy channel [Aumayr et al. 2021] (simplified):
    bi-directional, watchtower-free. Dispute windows are anchored to
    one absolute channel end-time T_end, so an honest party needs to
    come online only once before T_end — at the price of a limited
    channel lifetime (Table 1). Party storage is O(n). *)

module Tx = Daric_tx.Tx
module Script = Daric_script.Script
module Ledger = Daric_chain.Ledger
module Keys = Daric_core.Keys
module Schnorr = Daric_crypto.Schnorr

type side = {
  main : Keys.keypair;
  mutable rev_current : Keys.keypair;
  mutable received_rev : (int * Schnorr.secret_key) list;
}

type t = {
  ledger : Ledger.t;
  rng : Daric_util.Rng.t;
  cash : int;
  t_end : int;
  fund : Tx.t;
  a : side;
  b : side;
  mutable sn : int;
  mutable commit_a : Tx.t;
  mutable commit_b : Tx.t;
  mutable ops : Scheme_intf.ops;  (** per party, Table 3 accounting *)
}

val output_script :
  t -> rev_pk:Schnorr.public_key -> other_pk:Schnorr.public_key ->
  owner_pk:Schnorr.public_key -> Script.t
(** Revocation 2-of-2 before T_end | owner's key after T_end (CLTV). *)

val create :
  t_end:int -> ledger:Ledger.t -> rng:Daric_util.Rng.t -> bal_a:int ->
  bal_b:int -> unit -> t

val update : t -> bal_a:int -> bal_b:int -> Tx.t * Tx.t

val punish : t -> victim:[ `A | `B ] -> published:Tx.t -> Tx.t option
(** Claim the cheater's balance with the revealed secret, any time
    before T_end — no relative timer to race while asleep. *)

val sweep_own :
  ?rev_pk:Schnorr.public_key -> t -> who:[ `A | `B ] -> published:Tx.t -> Tx.t
(** The publisher's own-balance sweep, valid only from T_end on; pass
    the [rev_pk] of an old state when sweeping an old commit. *)

val commit_of : t -> [ `A | `B ] -> Tx.t
val funding_outpoint : t -> Tx.outpoint
val remaining_lifetime : t -> int
val storage_bytes : t -> who:[ `A | `B ] -> int

(** First-class {!Scheme_intf.SCHEME} instance driving this module
    through the generic lifecycle engine. *)
module Scheme : Scheme_intf.SCHEME
