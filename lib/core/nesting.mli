(** Channels on top of channels (Section 8): each nested level's
    funding output is the parent split's output, so the child's commit
    transactions are floating (ANYPREVOUT) — a *constant* number of
    pre-signed transactions per level (Table 1's O(1) #Txs column),
    against O(2^k) for state-duplicating schemes. *)

module Tx = Daric_tx.Tx
module Script = Daric_script.Script
module Ledger = Daric_chain.Ledger

type level = {
  keys_a : Keys.t;
  keys_b : Keys.t;
  funding_script : Script.t;
  commit_body : Tx.t;
  commit_sigs : string * string;
  commit_script : Script.t;
  split_body : Tx.t;
  split_sigs : string * string;
  value : int;
}

type stack = {
  levels : level list;  (** outermost first *)
  base_funding : Tx.outpoint;
  rel_lock : int;
  s0 : int;
}

val txs_daric : int -> int
val txs_with_state_duplication : int -> int

val build :
  Ledger.t -> rng:Daric_util.Rng.t -> depth:int -> value:int -> ?s0:int ->
  ?rel_lock:int -> unit -> stack
(** Build a [depth]-level stack, minting the outermost funding on the
    ledger; all inner levels exist purely off-chain. *)

val completed_commit : level -> funding:Tx.outpoint -> Tx.t
val completed_split : level -> commit_outpoint:Tx.outpoint -> Tx.t

val close_on_chain : stack -> Ledger.t -> Tx.t list
(** Close level by level (commit, wait T, split); returns the posted
    transactions, two per level. *)
