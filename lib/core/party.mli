(** Daric channel party: the protocol state machine of Appendix D, as
    a protocol core and an I/O shell. The core takes a delivered
    message, an environment command (INTRO/CREATE, UPDATE, CLOSE) or
    the end-of-round tick, updates the channel and returns its actions:
    send to the peer, post a transaction, report an event. Each entry
    point below runs the core and carries out the actions through
    {!ctx}; nothing else calls [ctx]'s closures. The tick runs the
    Punish phase, schedules split transactions and fires the timeouts.

    Channel state is exposed transparently: tests, the watchtower and
    the storage accounting read it, and adversarial tests snapshot it
    to model cheaters who keep revoked data. *)

module Tx = Daric_tx.Tx
module Script = Daric_script.Script
module Ledger = Daric_chain.Ledger

(** Channel configuration fixed at INTRO time. *)
type config = {
  id : string;
  role : Keys.role;
  peer : string;
  bal_a : int;
  bal_b : int;
  rel_lock : int;  (** the dispute window T (rounds), must exceed Δ *)
  s0 : int;  (** base of the state-number locktime encoding *)
}

val cash : config -> int

(** Environment decisions at the interactive protocol steps. *)
type env_policy = {
  approve_update : id:string -> theta:Tx.output list -> bool;
  approve_setup : id:string -> bool;
  approve_setup' : id:string -> bool;
  approve_revoke : id:string -> bool;
  approve_revoke' : id:string -> bool;
  approve_close : id:string -> bool;
}

val accept_all : env_policy

(** Events reported to the environment. *)
type event =
  | Created of string
  | Update_requested of string
  | Updated of string * int
  | Update_rejected of string
  | Closed of string
  | Punished of string
  | Aborted of string
  | Force_closed of string
  | Protocol_error of string * string

val event_to_string : event -> string

(** Operation counters (Table 3): only signatures produced for the
    counter-party or the watchtower and verifications of received
    signatures are counted. *)
type ops = { mutable signs : int; mutable verifies : int; mutable exps : int }

(** The channel's own signing contexts, one per keypair — built once
    at INTRO so deterministic signing's key-dependent setup is paid
    per channel, not per signature. *)
type sctx = {
  x_main : Daric_crypto.Keyctx.t;
  x_sp : Daric_crypto.Keyctx.t;
  x_rv : Daric_crypto.Keyctx.t;
  x_rv' : Daric_crypto.Keyctx.t;
}

type split_data = { split_body : Tx.t; split_sig_a : string; split_sig_b : string }

(** In-progress update (the paper's Γ'). *)
type update_ctx = {
  u_theta : Tx.output list;
  mutable u_commit_mine : Tx.t option;
  u_commit_mine_body : Tx.t;
  u_commit_theirs_body : Tx.t;
  u_split_body : Tx.t;  (** state-(sn+1) split body, generated once *)
  u_my_split_sig : string;
      (** our split signature from the update's first step; later
          steps reuse it (deterministic signing — bit-identical) *)
  mutable u_split : split_data option;
}

type phase =
  | Await_create_info
  | Await_create_com
  | Await_create_fund
  | Await_funding_confirm
  | Refunding
  | Operational
  | Upd_await_info
  | Upd_await_com_initiator
  | Upd_await_com_responder
  | Upd_await_revoke_initiator
  | Upd_await_revoke_responder
  | Close_await_ack
  | Close_await_confirm
  | Force_closed_waiting
  | Done

val phase_to_string : phase -> string

type chan = {
  cfg : config;
  keys : Keys.t;
  sctx : sctx;  (** own signing contexts, alive for the channel *)
  mutable pinned_pks : Daric_crypto.Schnorr.public_key list;
      (** keys pinned in the {!Daric_crypto.Keyctx} pool at open
          (own and peer's), released exactly once at Done *)
  mutable their_keys : Keys.pub option;
  mutable tid_mine : Tx.outpoint option;
  mutable tid_theirs : Tx.outpoint option;
  mutable fund : Tx.t option;
  mutable fund_sig_mine : string option;
  mutable fund_sig_theirs : string option;
  mutable sn : int;
  mutable st : Tx.output list;
  mutable flag : int;
  mutable st' : Tx.output list option;
  mutable commit_mine : Tx.t option;
  mutable commit_theirs_body : Tx.t option;
  mutable split : split_data option;
  mutable rev_sig_theirs : string option;
  mutable rev_sig_mine : string option;
  mutable pending : update_ctx option;
  mutable requested_theta : Tx.output list option;
  mutable phase : phase;
  mutable deadline : int option;
  mutable fin_split : Tx.t option;
  mutable commit_on_chain : (int * Tx.outpoint * Script.t * int) option;
  mutable split_posted : bool;
  mutable punish_posted : Tx.t option;
  mutable outcome : event option;
}

type t = {
  pid : string;
  env : env_policy;
  rng : Daric_util.Rng.t;
  mutable chans : (string * chan) list;
  mutable outbox : (int * event) list;
  ops : ops;
}

(** Per-round I/O capabilities handed to the party by the driver. *)
type ctx = {
  round : int;
  ledger : Ledger.t;
  send : recipient:string -> Wire.msg -> unit;
  post : Tx.t -> unit;
}

val create : ?env:env_policy -> pid:string -> seed:int -> unit -> t

val events : t -> (int * event) list
(** Environment outputs, oldest first. *)

val ops : t -> ops

val find_chan : t -> string -> chan option
val chan_exn : t -> string -> chan

val sctx_of_keys : Keys.t -> sctx
(** Build the per-channel signing contexts (used by crash recovery,
    which reconstructs a [chan] outside INTRO). *)

val repin_keys : chan -> unit
(** Release and re-take the channel's {!Daric_crypto.Keyctx} pool
    pins — crash recovery's counterpart of the pinning done at INTRO
    and createInfo. *)

val keys_ab : chan -> Keys.pub * Keys.pub
(** (Alice-side, Bob-side) public key bundles. *)

val main_pks :
  chan -> Daric_crypto.Schnorr.public_key * Daric_crypto.Schnorr.public_key

val latest_revocation : chan -> (int * Tx.t * string * string) option
(** The latest revocation the party holds: the revoked state index
    (sn - 1), its own floating revocation body for it, and the two
    revocation-branch signatures in (Alice, Bob) witness order. [None]
    before the first update. *)

val funding_outpoint : chan -> Tx.outpoint

val outputs_equal : Tx.output list -> Tx.output list -> bool

val intro :
  t -> ctx -> ?keys:Keys.t -> cfg:config -> tid:Tx.outpoint -> unit -> unit
(** INTRO: start creating the channel. [tid] must be a P2WPKH output
    of the main key holding this side's balance; tests that pre-mint
    it pass the pre-generated [keys]. *)

val request_update :
  t -> ctx -> id:string -> theta:Tx.output list -> ?tstp:int -> unit -> unit
(** UPDATE (initiator): propose the new state [theta]; the value must
    redistribute exactly the channel cash. *)

val request_close : t -> ctx -> id:string -> unit
(** CLOSE: propose a collaborative close at the current state. *)

val force_close : t -> ctx -> chan -> unit
(** Post the newest enforceable commit; the Punish daemon completes
    the closure (ForceClose of Appendix D). *)

val handle_msg : t -> ctx -> Wire.msg Daric_chain.Network.envelope -> unit
(** Process one delivered message; ill-formed or unexpected messages
    are dropped (the wrapper W_P of Appendix F). *)

val end_of_round : t -> ctx -> unit
(** The Punish phase plus split scheduling and timeout transitions;
    run at the end of every round. *)
