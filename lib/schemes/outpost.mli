(** Executable Outpost channel [Khabbazian et al. 2019] (simplified):
    the data needed to punish revoked commits is embedded in the
    commitment transactions themselves (a reverse revocation hash
    chain in an OP_RETURN-style output), so the watchtower stores only
    static channel data plus the state counter — O(log n) bits. *)

module Tx = Daric_tx.Tx
module Script = Daric_script.Script
module Ledger = Daric_chain.Ledger
module Keys = Daric_core.Keys
module Schnorr = Daric_crypto.Schnorr

val n_max : int
(** Chain length bound: maximum number of updates (limited lifetime). *)

type side = {
  main : Keys.keypair;
  penalty : Keys.keypair;
  seed : string;
  mutable chain_cache : string array;
}

val chain_value : side -> j:int -> string
(** H^(n_max - j)(seed); the value for j' derives every j <= j'. *)

val chain_down : string -> from_state:int -> to_state:int -> string
val secret_of_value : string -> Schnorr.secret_key
val rev_secret : side -> j:int -> Schnorr.secret_key
val rev_pk : side -> j:int -> Schnorr.public_key

type t = {
  ledger : Ledger.t;
  cash : int;
  rel_lock : int;
  fund : Tx.t;
  a : side;
  b : side;
  mutable sn : int;
  mutable commit_a : Tx.t;
  mutable commit_b : Tx.t;
  mutable ops : Scheme_intf.ops;  (** per party, Table 3 accounting *)
}

val create :
  ?rel_lock:int -> ledger:Ledger.t -> rng:Daric_util.Rng.t -> bal_a:int ->
  bal_b:int -> unit -> t

val update : t -> bal_a:int -> bal_b:int -> Tx.t * Tx.t

val embedded_values : Tx.t -> (string * string) option
(** The chain values carried in a commit's data output. *)

val punish : t -> victim:[ `A | `B ] -> published:Tx.t -> Tx.t option
(** Punish ANY revoked state by hashing the latest embedded value down
    to the published commit's state index. *)

val commit_of : t -> [ `A | `B ] -> Tx.t
val funding_outpoint : t -> Tx.outpoint

val watchtower_bytes : t -> int
(** Static key + funding outpoint + counter: O(log n). *)

val storage_bytes : t -> who:[ `A | `B ] -> int

(** First-class {!Scheme_intf.SCHEME} instance driving this module
    through the generic lifecycle engine. *)
module Scheme : Scheme_intf.SCHEME
