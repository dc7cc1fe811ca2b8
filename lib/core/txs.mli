(** Daric transaction generators: the Appendix-D subprocedures
    (GenFund, GenCommit, GenSplit, GenRevoke, GenFinSplit), the
    Appendix-B output scripts, and the witness-completion helpers that
    turn floating transactions into postable ones. *)

module Tx = Daric_tx.Tx
module Script = Daric_script.Script

val funding_script :
  pk_a:Daric_crypto.Schnorr.public_key ->
  pk_b:Daric_crypto.Schnorr.public_key ->
  Script.t
(** The 2-of-2 funding output script. *)

val commit_script :
  abs_lock:int -> rel_lock:int ->
  rev_pk1:Daric_crypto.Schnorr.public_key ->
  rev_pk2:Daric_crypto.Schnorr.public_key ->
  spl_pk1:Daric_crypto.Schnorr.public_key ->
  spl_pk2:Daric_crypto.Schnorr.public_key ->
  Script.t
(** The 157-byte commit output script:
    CLTV state ordering, then revocation branch | delayed split branch. *)

val gen_fund :
  tid_a:Tx.outpoint -> tid_b:Tx.outpoint -> cash:int ->
  pk_a:Daric_crypto.Schnorr.public_key ->
  pk_b:Daric_crypto.Schnorr.public_key ->
  Tx.t

val gen_commit :
  funding:Tx.outpoint -> value:int -> keys_a:Keys.pub -> keys_b:Keys.pub ->
  s0:int -> i:int -> rel_lock:int -> Tx.t * Tx.t
(** The state-i commit pair (Alice's, Bob's): Alice's carries the
    (rv_A, rv_B) revocation branch, Bob's (rv'_A, rv'_B). The state
    index is also encoded in the input's sequence field so punishers
    can reconstruct the hidden script (Section 8).

    The result is memoized on its inputs, so the two parties of an
    update — both generating this pair from the same data — share one
    physical body instead of two structurally-equal copies. *)

val commit_script_of :
  role:Keys.role -> keys_a:Keys.pub -> keys_b:Keys.pub -> s0:int -> i:int ->
  rel_lock:int -> Script.t
(** The script hidden behind [role]'s state-i commit output. *)

val gen_split : theta:Tx.output list -> s0:int -> i:int -> Tx.t
(** Floating split body; nLockTime = S0 + i stores the state number.
    Shared across the two parties of an update (see {!gen_commit}). *)

val gen_revoke :
  pk_a:Daric_crypto.Schnorr.public_key ->
  pk_b:Daric_crypto.Schnorr.public_key ->
  cash:int -> s0:int -> revoked:int -> Tx.t * Tx.t
(** Floating revocation pair for states up to [revoked]; the full
    channel funds go to the punishing party. Shared across the two
    parties of an update (see {!gen_commit}). *)

val gen_fin_split : funding:Tx.outpoint -> theta:Tx.output list -> Tx.t
(** Collaborative-close transaction spending the funding directly. *)

(** {1 Signing messages} *)

val funding_message : Tx.t -> string
val commit_message : Tx.t -> string
val split_message : Tx.t -> string
val revoke_message : Tx.t -> string
val fin_split_message : Tx.t -> string

(** {1 Witness completion} *)

val complete_commit :
  Tx.t -> sig_a:string -> sig_b:string ->
  pk_a:Daric_crypto.Schnorr.public_key ->
  pk_b:Daric_crypto.Schnorr.public_key -> Tx.t

val complete_fund :
  Tx.t -> sig_a:string -> pk_a:Daric_crypto.Schnorr.public_key ->
  sig_b:string -> pk_b:Daric_crypto.Schnorr.public_key -> Tx.t

val complete_split :
  Tx.t -> commit_outpoint:Tx.outpoint -> commit_script:Script.t ->
  sig_a:string -> sig_b:string -> Tx.t
(** Bind a floating split to a published commit's output (ELSE branch). *)

val complete_revocation :
  Tx.t -> commit_outpoint:Tx.outpoint -> commit_script:Script.t ->
  sig1:string -> sig2:string -> Tx.t
(** Bind a floating revocation to a revoked commit's output (IF branch). *)

val punish_revoked :
  keys_a:Keys.pub -> keys_b:Keys.pub -> s0:int -> rel_lock:int ->
  owner:Keys.role -> revoked:int -> rev_body:Tx.t -> sig_a:string ->
  sig_b:string -> Tx.t -> Tx.t option
(** The revoked-commit punishment the channel party and the watchtower
    both take (Section 4.4): if the spender is [owner]'s commit for a
    state index in 0..[revoked] — the index is read from its nSequence
    and the rebuilt commit script must be its one P2WSH output — bind
    the floating revocation [rev_body] to its output with the
    (Alice, Bob) revocation-branch signatures. [None] otherwise. *)

val complete_fin_split :
  Tx.t -> sig_a:string -> sig_b:string ->
  pk_a:Daric_crypto.Schnorr.public_key ->
  pk_b:Daric_crypto.Schnorr.public_key -> Tx.t

val balance_state :
  pk_a:Daric_crypto.Schnorr.public_key ->
  pk_b:Daric_crypto.Schnorr.public_key ->
  bal_a:int -> bal_b:int -> Tx.output list
(** A plain two-output channel state. *)
