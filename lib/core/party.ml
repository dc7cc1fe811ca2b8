(** Daric channel party: the protocol state machine of Appendix D, as
    a protocol core and an I/O shell. The core is Appendix D's (state,
    message) -> (state, actions): every transition updates the channel
    record and returns the {!action}s it takes. It reads the round and
    the ledger from [ctx] but never calls its closures. The entry points
    ({!handle_msg}, {!end_of_round}, {!intro}, the [request_*] commands,
    {!force_close}) are the shell: each runs one core transition and
    then {!apply}s its actions, in order.

    Environment round-trips (SETUP/SETUP-OK etc.) are modelled by a
    synchronous {!env_policy} consulted at the corresponding protocol
    step; tests inject rejecting policies to exercise every ForceClose
    branch. This collapses the paper's +-1-round environment hops but
    preserves the message/abort structure and all on-chain timings. *)

module Tx = Daric_tx.Tx
module Sighash = Daric_tx.Sighash
module Script = Daric_script.Script
module Ledger = Daric_chain.Ledger

let src = Logs.Src.create "daric.party" ~doc:"Daric channel party"

module Log = (val Logs.src_log src : Logs.LOG)

(* ------------------------------------------------------------------ *)

(** Channel configuration fixed at INTRO time. *)
type config = {
  id : string;
  role : Keys.role;  (** which of the two asymmetric key positions we hold *)
  peer : string;  (** network identity of the counter-party *)
  bal_a : int;  (** initial balance of the Alice side *)
  bal_b : int;
  rel_lock : int;  (** the dispute window T (rounds), must exceed Delta *)
  s0 : int;  (** base of the state-number locktime encoding *)
}

let cash (cfg : config) : int = cfg.bal_a + cfg.bal_b

(** Environment decisions at the interactive protocol steps. *)
type env_policy = {
  approve_update : id:string -> theta:Tx.output list -> bool;  (** UPDATE-OK *)
  approve_setup : id:string -> bool;  (** SETUP-OK *)
  approve_setup' : id:string -> bool;  (** SETUP'-OK *)
  approve_revoke : id:string -> bool;  (** REVOKE *)
  approve_revoke' : id:string -> bool;  (** REVOKE' *)
  approve_close : id:string -> bool;  (** counter-party's CLOSE consent *)
}

let accept_all : env_policy =
  { approve_update = (fun ~id:_ ~theta:_ -> true);
    approve_setup = (fun ~id:_ -> true);
    approve_setup' = (fun ~id:_ -> true);
    approve_revoke = (fun ~id:_ -> true);
    approve_revoke' = (fun ~id:_ -> true);
    approve_close = (fun ~id:_ -> true) }

(** Events reported to the environment. *)
type event =
  | Created of string
  | Update_requested of string
  | Updated of string * int  (** new state number *)
  | Update_rejected of string
  | Closed of string
  | Punished of string
  | Aborted of string  (** channel creation failed *)
  | Force_closed of string  (** commit posted unilaterally *)
  | Protocol_error of string * string

let event_to_string = function
  | Created id -> "CREATED " ^ id
  | Update_requested id -> "UPDATE-REQ " ^ id
  | Updated (id, n) -> Fmt.str "UPDATED %s -> state %d" id n
  | Update_rejected id -> "UPDATE-REJECTED " ^ id
  | Closed id -> "CLOSED " ^ id
  | Punished id -> "PUNISHED " ^ id
  | Aborted id -> "ABORTED " ^ id
  | Force_closed id -> "FORCE-CLOSE " ^ id
  | Protocol_error (id, m) -> Fmt.str "ERROR %s: %s" id m

(** Operation counters (Table 3, "num. of operations"). Only signatures
    produced for the counter-party or the watchtower and verifications
    of received signatures are counted, matching Appendix H's counting
    rules. *)
type ops = { mutable signs : int; mutable verifies : int; mutable exps : int }

(* ------------------------------------------------------------------ *)

(** The channel's own signing contexts, one per keypair — built once
    at INTRO and used by every [sign_counted], so deterministic
    signing's key-dependent setup (scalar encoding, public key) is
    paid per channel, not per signature. *)
type sctx = {
  x_main : Daric_crypto.Keyctx.t;
  x_sp : Daric_crypto.Keyctx.t;
  x_rv : Daric_crypto.Keyctx.t;
  x_rv' : Daric_crypto.Keyctx.t;
}

let sctx_of_keys (k : Keys.t) : sctx =
  let kc (kp : Keys.keypair) =
    Daric_crypto.Keyctx.create ~sk:kp.Keys.sk kp.Keys.pk
  in
  { x_main = kc k.Keys.main;
    x_sp = kc k.Keys.sp;
    x_rv = kc k.Keys.rv;
    x_rv' = kc k.Keys.rv' }

type split_data = { split_body : Tx.t; split_sig_a : string; split_sig_b : string }

(** In-progress update (the paper's Gamma'^P). *)
type update_ctx = {
  u_theta : Tx.output list;
  mutable u_commit_mine : Tx.t option;  (** fully signed state-(sn+1) commit *)
  u_commit_mine_body : Tx.t;
  u_commit_theirs_body : Tx.t;
  u_split_body : Tx.t;
      (** state-(sn+1) split body, generated once per update so later
          steps reuse its encoding memo instead of re-deriving it *)
  u_my_split_sig : string;
      (** our own split signature, produced when the update began;
          deterministic signing makes any re-sign of the same body
          bit-identical, so later steps reuse these bytes *)
  mutable u_split : split_data option;
}

type phase =
  | Await_create_info
  | Await_create_com
  | Await_create_fund
  | Await_funding_confirm
  | Refunding  (** refund posted after a create-phase abort *)
  | Operational
  | Upd_await_info  (** initiator sent updateReq *)
  | Upd_await_com_initiator  (** responder sent updateInfo *)
  | Upd_await_com_responder  (** initiator sent updateComP *)
  | Upd_await_revoke_initiator  (** responder sent updateComQ *)
  | Upd_await_revoke_responder  (** initiator sent revokeP *)
  | Close_await_ack
  | Close_await_confirm
  | Force_closed_waiting  (** commit posted; Punish daemon finishes up *)
  | Done

let phase_to_string = function
  | Await_create_info -> "await-create-info"
  | Await_create_com -> "await-create-com"
  | Await_create_fund -> "await-create-fund"
  | Await_funding_confirm -> "await-funding-confirm"
  | Refunding -> "refunding"
  | Operational -> "operational"
  | Upd_await_info -> "upd-await-info"
  | Upd_await_com_initiator -> "upd-await-com-initiator"
  | Upd_await_com_responder -> "upd-await-com-responder"
  | Upd_await_revoke_initiator -> "upd-await-revoke-initiator"
  | Upd_await_revoke_responder -> "upd-await-revoke-responder"
  | Close_await_ack -> "close-await-ack"
  | Close_await_confirm -> "close-await-confirm"
  | Force_closed_waiting -> "force-closed"
  | Done -> "done"

type chan = {
  cfg : config;
  keys : Keys.t;
  sctx : sctx;  (** own signing contexts, alive for the channel *)
  mutable pinned_pks : Daric_crypto.Schnorr.public_key list;
      (** keys this channel pinned in the {!Daric_crypto.Keyctx} pool
          (own and peer's); released exactly once, at Done *)
  mutable their_keys : Keys.pub option;
  mutable tid_mine : Tx.outpoint option;
  mutable tid_theirs : Tx.outpoint option;
  mutable fund : Tx.t option;  (** body; completed when posted *)
  mutable fund_sig_mine : string option;
  mutable fund_sig_theirs : string option;
  (* Latest committed state (the paper's Gamma^P). *)
  mutable sn : int;
  mutable st : Tx.output list;
  mutable flag : int;  (** 1 = single active state, 2 = update in flight *)
  mutable st' : Tx.output list option;
  mutable commit_mine : Tx.t option;  (** fully signed, postable *)
  mutable commit_theirs_body : Tx.t option;
  mutable split : split_data option;
  mutable rev_sig_theirs : string option;  (** Theta^P, revokes state sn-1 *)
  mutable rev_sig_mine : string option;  (** own sig, produced for the watchtower *)
  mutable pending : update_ctx option;
  mutable requested_theta : Tx.output list option;
      (** state we proposed in an outstanding updateReq *)
  mutable phase : phase;
  mutable deadline : int option;
  mutable fin_split : Tx.t option;  (** collaborative-close body *)
  (* Punish-daemon bookkeeping. *)
  mutable commit_on_chain : (int * Tx.outpoint * Script.t * int) option;
      (** (recorded round, outpoint, commit script, state index) *)
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

let create ?(env = accept_all) ~(pid : string) ~(seed : int) () : t =
  { pid;
    env;
    rng = Daric_util.Rng.create ~seed;
    chans = [];
    outbox = [];
    ops = { signs = 0; verifies = 0; exps = 0 } }

let events (t : t) : (int * event) list = List.rev t.outbox
let ops (t : t) : ops = t.ops

(** What a core transition asks of the world. A message always goes to
    the channel's peer, so [Send] names no recipient. *)
type action = Send of Wire.msg | Post of Tx.t | Emit of event

(** The shell: carry out channel [c]'s actions in order. The only code
    that calls [ctx]'s closures. *)
let apply (t : t) (ctx : ctx) (c : chan) (actions : action list) : unit =
  List.iter
    (function
      | Send msg -> ctx.send ~recipient:c.cfg.peer msg
      | Post tx -> ctx.post tx
      | Emit ev ->
          Log.debug (fun m -> m "%s: %s" t.pid (event_to_string ev));
          t.outbox <- (ctx.round, ev) :: t.outbox)
    actions

let find_chan (t : t) (id : string) : chan option = List.assoc_opt id t.chans

let chan_exn (t : t) (id : string) : chan =
  match find_chan t id with
  | Some c -> c
  | None -> invalid_arg ("unknown channel " ^ id)

(* ---- key/role helpers -------------------------------------------- *)

(** [ab c mine theirs] puts our value and the peer's in (Alice, Bob)
    order. It is its own inverse: applied to an (Alice, Bob) pair it
    returns (ours, the peer's). Every role-dependent choice of the
    protocol goes through it. *)
let ab (c : chan) (mine : 'a) (theirs : 'a) : 'a * 'a =
  match c.cfg.role with Keys.Alice -> (mine, theirs) | Keys.Bob -> (theirs, mine)

let keys_ab (c : chan) : Keys.pub * Keys.pub =
  ab c (Keys.pub c.keys) (Option.get c.their_keys)

let main_pks (c : chan) : Daric_crypto.Schnorr.public_key * Daric_crypto.Schnorr.public_key =
  let a, b = keys_ab c in
  (a.Keys.main_pk, b.Keys.main_pk)

(** (our, the peer's) floating revocation bodies for revoked state
    [revoked]. *)
let rev_bodies (c : chan) ~(revoked : int) : Tx.t * Tx.t =
  let pk_a, pk_b = main_pks c in
  let rv_a, rv_b =
    Txs.gen_revoke ~pk_a ~pk_b ~cash:(cash c.cfg) ~s0:c.cfg.s0 ~revoked
  in
  ab c rv_a rv_b

(* ---- counted crypto operations ----------------------------------- *)

let sign_counted (t : t) (kc : Daric_crypto.Keyctx.t) (flag : Sighash.flag)
    (msg : string) : string =
  t.ops.signs <- t.ops.signs + 1;
  Sighash.sign_message_keyed kc flag msg

(* Pooled: the peer's keys are pinned at createInfo, so in-protocol
   verifications run through their window tables; after release
   (or pin saturation) the same call transparently takes the plain
   path with the same verdict. *)
let verify_counted (t : t) (pk : Daric_crypto.Schnorr.public_key) (msg : string)
    (sig_bytes : string) : bool =
  t.ops.verifies <- t.ops.verifies + 1;
  Sighash.verify_message_pooled
    (Daric_crypto.Schnorr.encode_public_key pk)
    msg sig_bytes

(* Pool residency over the channel lifecycle: pin at open, release at
   Done — the explicit reclaim discipline that keeps pool memory
   proportional to LIVE channels. Saturated (refused) pins are simply
   not recorded, so release stays balanced. *)

let pin_own_keys (c : chan) : Daric_crypto.Schnorr.public_key list =
  List.filter_map
    (fun kc ->
      if Daric_crypto.Keyctx.pin_ctx kc then Some (Daric_crypto.Keyctx.pk kc)
      else None)
    [ c.sctx.x_main; c.sctx.x_sp; c.sctx.x_rv; c.sctx.x_rv' ]

let pin_their_keys (theirs : Keys.pub) : Daric_crypto.Schnorr.public_key list =
  List.filter_map
    (fun pk -> if Daric_crypto.Keyctx.pin pk then Some pk else None)
    [ theirs.Keys.main_pk; theirs.Keys.sp_pk; theirs.Keys.rv_pk;
      theirs.Keys.rv'_pk ]

let release_chan_keys (c : chan) : unit =
  List.iter Daric_crypto.Keyctx.release c.pinned_pks;
  c.pinned_pks <- []

(** (Re)take the channel's pool pins — used after crash recovery
    reconstructs a [chan] outside the INTRO/createInfo path. *)
let repin_keys (c : chan) : unit =
  release_chan_keys c;
  let own = pin_own_keys c in
  let theirs =
    match c.their_keys with Some k -> pin_their_keys k | None -> []
  in
  c.pinned_pks <- theirs @ own

(* ---- transaction (re)construction helpers ------------------------ *)

let funding_outpoint (c : chan) : Tx.outpoint =
  Tx.outpoint_of (Option.get c.fund) 0

(** (our, the peer's) commit bodies for state [i]. *)
let commits (c : chan) ~(i : int) : Tx.t * Tx.t =
  let keys_a, keys_b = keys_ab c in
  let cm_a, cm_b =
    Txs.gen_commit ~funding:(funding_outpoint c) ~value:(cash c.cfg) ~keys_a
      ~keys_b ~s0:c.cfg.s0 ~i ~rel_lock:c.cfg.rel_lock
  in
  ab c cm_a cm_b

let commit_script_for (c : chan) ~(owner : Keys.role) ~(i : int) : Script.t =
  let keys_a, keys_b = keys_ab c in
  Txs.commit_script_of ~role:owner ~keys_a ~keys_b ~s0:c.cfg.s0 ~i
    ~rel_lock:c.cfg.rel_lock

(** A split body with our signature and the peer's in place. *)
let split_with (c : chan) (split_body : Tx.t) ~(mine : string) ~(theirs : string)
    : split_data =
  let split_sig_a, split_sig_b = ab c mine theirs in
  { split_body; split_sig_a; split_sig_b }

(** Co-sign a 2-of-2 spend of the funding output — a commit or the fin
    split: our keyed signature (uncounted, it stays on the device) next
    to the peer's, then [complete]. *)
let cosign_funding_spend (c : chan)
    (complete :
      Tx.t -> sig_a:string -> sig_b:string ->
      pk_a:Daric_crypto.Schnorr.public_key ->
      pk_b:Daric_crypto.Schnorr.public_key -> Tx.t)
    (message : Tx.t -> string) (body : Tx.t) ~(theirs : string) : Tx.t =
  let sig_a, sig_b =
    ab c (Sighash.sign_message_keyed c.sctx.x_main All (message body)) theirs
  in
  let pk_a, pk_b = main_pks c in
  complete body ~sig_a ~sig_b ~pk_a ~pk_b

(* ---- transitions ------------------------------------------------- *)

(** Enter [phase], arm its deadline [wait] rounds out, and send [msg]. *)
let advance (ctx : ctx) (c : chan) (phase : phase) ~(wait : int)
    (msg : Wire.msg) : action list =
  c.phase <- phase;
  c.deadline <- Some (ctx.round + wait);
  [ Send msg ]

(** Enter [phase] and post [tx], allowing it Δ + 1 rounds to confirm. *)
let await_confirm (ctx : ctx) (c : chan) (phase : phase) (tx : Tx.t) :
    action list =
  c.phase <- phase;
  c.deadline <- Some (ctx.round + 1 + Ledger.delta ctx.ledger);
  [ Post tx ]

(** Finish with the channel: Done, pins released, [ev] reported. *)
let settle (c : chan) (ev : event) : action list =
  c.phase <- Done;
  release_chan_keys c;
  c.deadline <- None;
  c.outcome <- Some ev;
  [ Emit ev ]

(* ------------------------------------------------------------------ *)
(* Create phase.                                                       *)

let initial_state (c : chan) : Tx.output list =
  let pk_a, pk_b = main_pks c in
  Txs.balance_state ~pk_a ~pk_b ~bal_a:c.cfg.bal_a ~bal_b:c.cfg.bal_b

let split0 (c : chan) : Tx.t = Txs.gen_split ~theta:c.st ~s0:c.cfg.s0 ~i:0

let on_create_info (t : t) (ctx : ctx) (c : chan) ~(tid : Tx.outpoint)
    ~(keys : Keys.pub) : action list =
  c.their_keys <- Some keys;
  c.pinned_pks <- pin_their_keys keys @ c.pinned_pks;
  c.tid_theirs <- Some tid;
  let pk_a, pk_b = main_pks c in
  let tid_a, tid_b = ab c (Option.get c.tid_mine) tid in
  let fund = Txs.gen_fund ~tid_a ~tid_b ~cash:(cash c.cfg) ~pk_a ~pk_b in
  c.fund <- Some fund;
  c.st <- initial_state c;
  let _, commit_theirs = commits c ~i:0 in
  let split_sig =
    sign_counted t c.sctx.x_sp Anyprevout (Txs.split_message (split0 c))
  in
  let commit_sig =
    sign_counted t c.sctx.x_main All (Txs.commit_message commit_theirs)
  in
  advance ctx c Await_create_com ~wait:2
    (Wire.Create_com { id = c.cfg.id; split_sig; commit_sig })

(** The peer's state-0 signatures on [split] and [commit_mine] verified:
    assemble state-0 data, then sign and send the funding transaction. *)
let on_create_com (t : t) (ctx : ctx) (c : chan) ~(split : Tx.t)
    ~(commit_mine : Tx.t) ~(commit_theirs : Tx.t) ~(split_sig : string)
    ~(commit_sig : string) : action list =
  let mine =
    Sighash.sign_message_keyed c.sctx.x_sp Anyprevout (Txs.split_message split)
  in
  c.split <- Some (split_with c split ~mine ~theirs:split_sig);
  c.commit_mine <-
    Some
      (cosign_funding_spend c Txs.complete_commit Txs.commit_message
         commit_mine ~theirs:commit_sig);
  c.commit_theirs_body <- Some commit_theirs;
  let fund_sig =
    sign_counted t c.sctx.x_main All (Txs.funding_message (Option.get c.fund))
  in
  c.fund_sig_mine <- Some fund_sig;
  advance ctx c Await_create_fund ~wait:2
    (Wire.Create_fund { id = c.cfg.id; fund_sig })

let on_create_fund (ctx : ctx) (c : chan) ~(fund_sig : string) : action list =
  c.fund_sig_theirs <- Some fund_sig;
  let pk_a, pk_b = main_pks c in
  let sig_a, sig_b = ab c (Option.get c.fund_sig_mine) fund_sig in
  await_confirm ctx c Await_funding_confirm
    (Txs.complete_fund (Option.get c.fund) ~sig_a ~pk_a ~sig_b ~pk_b)

(** Abort channel creation by spending our own funding source back to
    ourselves (create step 5, Else branch). *)
let post_refund (ctx : ctx) (c : chan) : action list =
  let tid = Option.get c.tid_mine in
  match Ledger.find_utxo ctx.ledger tid with
  | Some utxo ->
      let refund =
        Tx.make
          ~inputs:[ Tx.input_of_outpoint tid ]
          ~outputs:
            [ { Tx.value = utxo.output.value;
                spk =
                  Tx.P2wpkh
                    (Daric_crypto.Hash.hash160 (Keys.enc c.keys.Keys.main.pk)) } ]
          ()
      in
      let sig_mine = Sighash.sign c.keys.Keys.main.sk All refund ~input_index:0 in
      await_confirm ctx c Refunding
        (Tx.with_witnesses refund
           [ [ Tx.Data sig_mine; Tx.Data (Keys.enc c.keys.Keys.main.pk) ] ])
  | None -> settle c (Aborted c.cfg.id)

(* ------------------------------------------------------------------ *)
(* ForceClose.                                                         *)

(** Post the newest fully-signed commit transaction (Appendix D,
    subprocedure ForceClose): state sn when flag = 1 or the new commit
    is not yet signed, state sn+1 otherwise. The Punish daemon then
    completes the closure by posting the matching split transaction
    after T rounds. *)
let close_unilaterally (c : chan) : action list =
  let commit =
    match (c.flag, c.pending) with
    | 2, Some { u_commit_mine = Some cm; _ } -> Some cm
    | _ -> c.commit_mine
  in
  match commit with
  | None ->
      (* Nothing enforceable yet (creation never completed). *)
      settle c (Aborted c.cfg.id)
  | Some commit ->
      c.phase <- Force_closed_waiting;
      c.deadline <- None;
      [ Post commit; Emit (Force_closed c.cfg.id) ]

(* ------------------------------------------------------------------ *)
(* Update phase.                                                       *)

(** Update step 1 (initiator): request a state update to [theta]. *)
let update_req (ctx : ctx) (c : chan) ~(theta : Tx.output list) ~(tstp : int)
    : action list =
  if c.phase <> Operational then invalid_arg "request_update: channel busy";
  if
    List.fold_left (fun a (o : Tx.output) -> a + o.value) 0 theta <> cash c.cfg
  then invalid_arg "request_update: state must redistribute exactly the cash";
  c.requested_theta <- Some theta;
  advance ctx c Upd_await_info ~wait:(2 + tstp)
    (Wire.Update_req { id = c.cfg.id; theta; tstp })

(** The state-(sn+1) split body for [theta]. *)
let next_split (c : chan) ~(theta : Tx.output list) : Tx.t =
  Txs.gen_split ~theta ~s0:c.cfg.s0 ~i:(c.sn + 1)

(** Begin the in-flight update to [theta]: the state-(sn+1) bodies and
    our (counted) signature over its split. *)
let begin_update (t : t) (c : chan) ~(theta : Tx.output list)
    ~(split_body : Tx.t) : update_ctx =
  let commit_mine_body, commit_theirs_body = commits c ~i:(c.sn + 1) in
  { u_theta = theta;
    u_commit_mine = None;
    u_commit_mine_body = commit_mine_body;
    u_commit_theirs_body = commit_theirs_body;
    u_split_body = split_body;
    u_my_split_sig =
      sign_counted t c.sctx.x_sp Anyprevout (Txs.split_message split_body);
    u_split = None }

(** Update steps 2-3 (responder): consult the environment; on approval,
    sign the new split transaction. *)
let on_update_req (t : t) (ctx : ctx) (c : chan) ~(theta : Tx.output list) :
    action list =
  let requested = Emit (Update_requested c.cfg.id) in
  if not (t.env.approve_update ~id:c.cfg.id ~theta) then
    [ requested; Emit (Update_rejected c.cfg.id) ]
  else begin
    let u = begin_update t c ~theta ~split_body:(next_split c ~theta) in
    c.pending <- Some u;
    requested
    :: advance ctx c Upd_await_com_initiator ~wait:2
         (Wire.Update_info { id = c.cfg.id; split_sig = u.u_my_split_sig })
  end

(** Bind the in-flight state with the peer's split signature: from here
    the channel has two potentially-enforceable states (flag = 2). *)
let bind_pending (c : chan) (u : update_ctx) ~(split_sig : string) : unit =
  u.u_split <-
    Some (split_with c u.u_split_body ~mine:u.u_my_split_sig ~theirs:split_sig);
  c.pending <- Some u;
  c.flag <- 2;
  c.st' <- Some u.u_theta

(** Our (counted) signature on the peer's state-(sn+1) commit. *)
let their_commit_sig (t : t) (c : chan) (u : update_ctx) : string =
  sign_counted t c.sctx.x_main All (Txs.commit_message u.u_commit_theirs_body)

(** Update steps 4-5 (initiator), the responder's split signature
    verified: with the environment's SETUP-OK, sign the responder's
    commit and our own split signature. *)
let on_update_info (t : t) (ctx : ctx) (c : chan) ~(theta : Tx.output list)
    ~(split_body : Tx.t) ~(split_sig : string) : action list =
  let u = begin_update t c ~theta ~split_body in
  bind_pending c u ~split_sig;
  if not (t.env.approve_setup ~id:c.cfg.id) then close_unilaterally c
  else
    advance ctx c Upd_await_com_responder ~wait:2
      (Wire.Update_com_initiator
         { id = c.cfg.id; split_sig = u.u_my_split_sig;
           commit_sig = their_commit_sig t c u })

(** Our state-(sn+1) commit becomes enforceable: complete it with the
    peer's signature (update steps 6 and 8). *)
let complete_pending (c : chan) (u : update_ctx) ~(commit_sig : string) : unit =
  u.u_commit_mine <-
    Some
      (cosign_funding_spend c Txs.complete_commit Txs.commit_message
         u.u_commit_mine_body ~theirs:commit_sig)

(** Update steps 6-7 (responder), the initiator's split and commit
    signatures verified: our new commit is now enforceable; with
    SETUP'-OK, sign the initiator's commit. *)
let on_update_com_initiator (t : t) (ctx : ctx) (c : chan) (u : update_ctx)
    ~(split_sig : string) ~(commit_sig : string) : action list =
  (* Deterministic signing: our updateInfo signature over this very
     body is bit-identical, so reuse the bytes. Still counted — the ops
     counters report the protocol's Table-3 cost model, not the
     memoization. *)
  t.ops.signs <- t.ops.signs + 1;
  complete_pending c u ~commit_sig;
  bind_pending c u ~split_sig;
  if not (t.env.approve_setup' ~id:c.cfg.id) then close_unilaterally c
  else
    advance ctx c Upd_await_revoke_initiator ~wait:2
      (Wire.Update_com_responder
         { id = c.cfg.id; commit_sig = their_commit_sig t c u })

(* Revocation keys: Alice's commits carry the rv keys in their
   revocation branch, Bob's the rv' keys, so [ab c rv rv'] of any key
   bundle is (its key in our commit's branch, its key in the peer's).
   Our key in our own branch signs the peer's revocation transaction,
   which spends our commit; our key in the peer's branch completes our
   own revocation transaction. *)

(** Revoke state sn: sign the peer's floating revocation transaction
    (update steps 9 and 11). *)
let revoke_sig (t : t) (c : chan) : string =
  let kc, _ = ab c c.sctx.x_rv c.sctx.x_rv' in
  sign_counted t kc Anyprevout
    (Txs.revoke_message (snd (rev_bodies c ~revoked:c.sn)))

(** Update steps 8-9 (initiator), the responder's commit signature
    verified: our new commit is enforceable; with the environment's
    REVOKE, revoke state sn by signing the counter-party's floating
    revocation transaction. *)
let on_update_com_responder (t : t) (ctx : ctx) (c : chan) (u : update_ctx)
    ~(commit_sig : string) : action list =
  complete_pending c u ~commit_sig;
  if not (t.env.approve_revoke ~id:c.cfg.id) then close_unilaterally c
  else
    advance ctx c Upd_await_revoke_responder ~wait:2
      (Wire.Revoke_initiator { id = c.cfg.id; rev_sig = revoke_sig t c })

(** Commit the pending state: the paper's step-10/12 bookkeeping common
    to both parties, including pre-signing our own revocation
    transaction for the watchtower. *)
let finalize_update (t : t) (c : chan) (u : update_ctx) ~(rev_sig : string) :
    action list =
  c.rev_sig_theirs <- Some rev_sig;
  c.sn <- c.sn + 1;
  c.st <- u.u_theta;
  c.flag <- 1;
  c.st' <- None;
  c.commit_mine <- u.u_commit_mine;
  c.commit_theirs_body <- Some u.u_commit_theirs_body;
  c.split <- u.u_split;
  c.pending <- None;
  c.phase <- Operational;
  c.deadline <- None;
  (* Pre-sign our own revocation transaction for the watchtower
     (counted: it is sent off-device). *)
  let _, kc = ab c c.sctx.x_rv c.sctx.x_rv' in
  c.rev_sig_mine <-
    Some
      (sign_counted t kc Anyprevout
         (Txs.revoke_message (fst (rev_bodies c ~revoked:(c.sn - 1)))));
  [ Emit (Updated (c.cfg.id, c.sn)) ]

(** Update steps 10-11 (responder), the revocation signature verified:
    with REVOKE', commit the new state and send our own revocation
    signature back. *)
let on_revoke_initiator (t : t) (c : chan) (u : update_ctx) ~(rev_sig : string)
    : action list =
  if not (t.env.approve_revoke' ~id:c.cfg.id) then close_unilaterally c
  else begin
    let their_rev_sig = revoke_sig t c in
    let updated = finalize_update t c u ~rev_sig in
    updated @ [ Send (Wire.Revoke_responder { id = c.cfg.id; rev_sig = their_rev_sig }) ]
  end

(* ------------------------------------------------------------------ *)
(* Close phase.                                                        *)

(** The collaborative close's modified split transaction, spending the
    funding output directly. *)
let fin_split (c : chan) : Tx.t =
  Txs.gen_fin_split ~funding:(funding_outpoint c) ~theta:c.st

(** Keep [fin] for the closing post and sign it for the peer. *)
let sign_fin (t : t) (c : chan) (fin : Tx.t) : string =
  c.fin_split <- Some fin;
  sign_counted t c.sctx.x_main All (Txs.fin_split_message fin)

(** CLOSE (requester): propose a collaborative close at state sn. *)
let close_req (t : t) (ctx : ctx) (c : chan) : action list =
  if c.phase <> Operational then invalid_arg "request_close: channel busy";
  advance ctx c Close_await_ack ~wait:2
    (Wire.Close_req { id = c.cfg.id; fin_sig = sign_fin t c (fin_split c) })

(* ------------------------------------------------------------------ *)
(* Message dispatch (the wrapper W_P of Appendix F) and the signature- *)
(* check table.                                                        *)

(** What a message whose signature check fails does. *)
type on_bad_sig =
  | Report  (** report only: nothing is bound yet, the phase deadline recovers *)
  | Resume  (** report and return to Operational: nothing was revealed *)
  | Force  (** report and ForceClose: the new state may already bind *)

(** A failed check: report [msg]'s bad signature(s) and apply [rule]. *)
let bad_sig (c : chan) (msg : Wire.msg) ~(checks : int) (rule : on_bad_sig) :
    action list =
  let error =
    Emit
      (Protocol_error
         ( c.cfg.id,
           Fmt.str "invalid %s signature%s" (Wire.kind msg)
             (if checks > 1 then "s" else "") ))
  in
  match rule with
  | Report -> [ error ]
  | Resume ->
      c.phase <- Operational;
      c.deadline <- None;
      [ error ]
  | Force -> error :: close_unilaterally c

(** The check of the peer's signature on our floating revocation
    transaction for state sn (update steps 10 and 12). *)
let their_revocation (c : chan) ~(rev_sig : string) :
    Daric_crypto.Schnorr.public_key * string * string =
  let theirs = Option.get c.their_keys in
  let _, pk = ab c theirs.Keys.rv_pk theirs.Keys.rv'_pk in
  (pk, Txs.revoke_message (fst (rev_bodies c ~revoked:c.sn)), rev_sig)

(** Handle a message the peer sent. Each row takes one message kind in
    the one phase that expects it; every other message is dropped. A
    signature-carrying row lists the peer's (key, message, signature)
    checks and the failure rule; every check is verified and counted,
    even after one fails, and the row's handler runs only if all
    pass. *)
let on_msg (t : t) (ctx : ctx) (c : chan) (msg : Wire.msg) : action list =
  let checked rule checks handler =
    let ok =
      List.fold_left
        (fun ok (pk, m, s) -> verify_counted t pk m s && ok)
        true checks
    in
    if ok then handler () else bad_sig c msg ~checks:(List.length checks) rule
  in
  let theirs () = Option.get c.their_keys in
  match (msg, c.phase) with
  | Wire.Create_info { tid; keys; _ }, Await_create_info ->
      on_create_info t ctx c ~tid ~keys
  | Wire.Create_com { split_sig; commit_sig; _ }, Await_create_com ->
      let k = theirs () and split = split0 c in
      let commit_mine, commit_theirs = commits c ~i:0 in
      checked Report
        [ (k.Keys.sp_pk, Txs.split_message split, split_sig);
          (k.Keys.main_pk, Txs.commit_message commit_mine, commit_sig) ]
        (fun () ->
          on_create_com t ctx c ~split ~commit_mine ~commit_theirs ~split_sig
            ~commit_sig)
  | Wire.Create_fund { fund_sig; _ }, Await_create_fund ->
      checked Report
        [ ((theirs ()).Keys.main_pk, Txs.funding_message (Option.get c.fund), fund_sig) ]
        (fun () -> on_create_fund ctx c ~fund_sig)
  | Wire.Update_req { theta; _ }, Operational -> on_update_req t ctx c ~theta
  | Wire.Update_info { split_sig; _ }, Upd_await_info ->
      (* theta travelled in our own updateReq *)
      let theta = Option.get c.requested_theta in
      let split_body = next_split c ~theta in
      checked Resume
        [ ((theirs ()).Keys.sp_pk, Txs.split_message split_body, split_sig) ]
        (fun () -> on_update_info t ctx c ~theta ~split_body ~split_sig)
  | Wire.Update_com_initiator { split_sig; commit_sig; _ }, Upd_await_com_initiator
    ->
      let k = theirs () and u = Option.get c.pending in
      checked Force
        [ (k.Keys.sp_pk, Txs.split_message u.u_split_body, split_sig);
          (k.Keys.main_pk, Txs.commit_message u.u_commit_mine_body, commit_sig) ]
        (fun () -> on_update_com_initiator t ctx c u ~split_sig ~commit_sig)
  | Wire.Update_com_responder { commit_sig; _ }, Upd_await_com_responder ->
      let u = Option.get c.pending in
      checked Force
        [ ((theirs ()).Keys.main_pk, Txs.commit_message u.u_commit_mine_body, commit_sig) ]
        (fun () -> on_update_com_responder t ctx c u ~commit_sig)
  | Wire.Revoke_initiator { rev_sig; _ }, Upd_await_revoke_initiator ->
      let u = Option.get c.pending in
      checked Force [ their_revocation c ~rev_sig ] (fun () ->
          on_revoke_initiator t c u ~rev_sig)
  | Wire.Revoke_responder { rev_sig; _ }, Upd_await_revoke_responder ->
      let u = Option.get c.pending in
      checked Force [ their_revocation c ~rev_sig ] (fun () ->
          finalize_update t c u ~rev_sig)
  | Wire.Close_req { fin_sig; _ }, Operational ->
      if not (t.env.approve_close ~id:c.cfg.id) then []
        (* staying silent forces the requester into ForceClose, as in
           the ideal functionality's "Q disagreed" branch *)
      else begin
        let fin = fin_split c in
        checked Report
          [ ((theirs ()).Keys.main_pk, Txs.fin_split_message fin, fin_sig) ]
          (fun () ->
            advance ctx c Close_await_confirm ~wait:(2 + Ledger.delta ctx.ledger)
              (Wire.Close_ack { id = c.cfg.id; fin_sig = sign_fin t c fin }))
      end
  | Wire.Close_ack { fin_sig; _ }, Close_await_ack ->
      let fin = Option.get c.fin_split in
      checked Force
        [ ((theirs ()).Keys.main_pk, Txs.fin_split_message fin, fin_sig) ]
        (fun () ->
          await_confirm ctx c Close_await_confirm
            (cosign_funding_spend c Txs.complete_fin_split Txs.fin_split_message
               fin ~theirs:fin_sig))
  | _ ->
      Log.debug (fun m -> m "%s: dropping %s" t.pid (Wire.kind msg));
      []

(* ------------------------------------------------------------------ *)
(* Punish daemon.                                                      *)

let outputs_equal (a : Tx.output list) (b : Tx.output list) : bool =
  List.length a = List.length b
  && List.for_all2
       (fun (x : Tx.output) (y : Tx.output) ->
         x.value = y.value
         &&
         match (x.spk, y.spk) with
         | Tx.P2wsh h1, Tx.P2wsh h2 | Tx.P2wpkh h1, Tx.P2wpkh h2 ->
             String.equal h1 h2
         | Tx.Raw s1, Tx.Raw s2 ->
             String.equal (Script.serialize s1) (Script.serialize s2)
         | Tx.Op_return, Tx.Op_return -> true
         | _ -> false)
       a b

(** Do [outputs] pay the latest state or the one in flight? *)
let expected_state (c : chan) (outputs : Tx.output list) : bool =
  outputs_equal outputs c.st
  || match c.st' with Some st' -> outputs_equal outputs st' | None -> false

(** Bodies of the currently-enforceable commit transactions — the
    paper's set I. *)
let enforceable_commit_txids (c : chan) : (string * int * Keys.role) list =
  let base =
    List.filter_map
      (fun (tx, i, owner) ->
        Option.map (fun tx -> (Tx.txid tx, i, owner)) tx)
      [ (c.commit_mine, c.sn, c.cfg.role);
        (c.commit_theirs_body, c.sn, Keys.other_role c.cfg.role) ]
  in
  match c.pending with
  | Some u when c.flag = 2 ->
      base
      @ [ (Tx.txid u.u_commit_mine_body, c.sn + 1, c.cfg.role);
          (Tx.txid u.u_commit_theirs_body, c.sn + 1, Keys.other_role c.cfg.role) ]
  | _ -> base

(** The latest revocation this party holds: the revoked index (sn - 1),
    our floating revocation body for it, and the two revocation-branch
    signatures in (Alice, Bob) witness order. [None] before the first
    update — state 0 has nothing to revoke. *)
let latest_revocation (c : chan) : (int * Tx.t * string * string) option =
  match (c.rev_sig_mine, c.rev_sig_theirs) with
  | Some mine, Some theirs ->
      let revoked = c.sn - 1 in
      let sig_a, sig_b = ab c mine theirs in
      Some (revoked, fst (rev_bodies c ~revoked), sig_a, sig_b)
  | _ -> None

(** Punish a revoked commit with {!Txs.punish_revoked} — the step the
    watchtower takes too — and post the revocation instantly
    (Section 4.4). *)
let punish (c : chan) (published : Tx.t) : action list =
  match latest_revocation c with
  | None ->
      [ Emit (Protocol_error (c.cfg.id, "foreign spend of funding output (forgery?)")) ]
  | Some (revoked, rev_body, sig_a, sig_b) -> (
      let keys_a, keys_b = keys_ab c in
      match
        Txs.punish_revoked ~keys_a ~keys_b ~s0:c.cfg.s0 ~rel_lock:c.cfg.rel_lock
          ~owner:(Keys.other_role c.cfg.role) ~revoked ~rev_body ~sig_a ~sig_b
          published
      with
      | None ->
          [ Emit (Protocol_error (c.cfg.id, "unrecognized spend of funding output")) ]
      | Some rv ->
          c.punish_posted <- Some rv;
          [ Post rv ])

(** Post the split transaction matching the on-chain commit, once T
    rounds have elapsed since the commit was recorded. *)
let try_post_split (ctx : ctx) (c : chan) : action list =
  match c.commit_on_chain with
  | Some (recorded, outpoint, script, idx)
    when (not c.split_posted) && ctx.round - recorded >= c.cfg.rel_lock -> (
      let split =
        if idx = c.sn then c.split
        else match c.pending with Some u -> u.u_split | None -> None
      in
      match split with
      | None ->
          [ Emit (Protocol_error (c.cfg.id, "no split transaction for on-chain commit")) ]
      | Some sd ->
          c.split_posted <- true;
          [ Post
              (Txs.complete_split sd.split_body ~commit_outpoint:outpoint
                 ~commit_script:script ~sig_a:sd.split_sig_a ~sig_b:sd.split_sig_b) ])
  | _ -> []

(** The Punish phase, executed at the end of every round: watch the
    funding output and react to whatever spent it. *)
let punish_daemon (ctx : ctx) (c : chan) : action list =
  match c.fund with
  | None -> []
  | Some fund -> (
      let fund_op = Tx.outpoint_of fund 0 in
      match Ledger.spender_of ctx.ledger fund_op with
      | None -> []
      | Some spender -> (
          let spender_id = Tx.txid spender in
          match
            List.find_opt
              (fun (txid, _, _) -> String.equal txid spender_id)
              (enforceable_commit_txids c)
          with
          | Some (_, idx, owner) -> (
              (* A valid commit: schedule the matching split after T. *)
              (if c.commit_on_chain = None then
                 let script = commit_script_for c ~owner ~i:idx in
                 let recorded =
                   match Ledger.recorded_round_of ctx.ledger spender_id with
                   | Some r -> r
                   | None -> ctx.round
                 in
                 c.commit_on_chain <-
                   Some (recorded, Tx.outpoint_of spender 0, script, idx));
              let split = try_post_split ctx c in
              (* Did something spend the commit output? *)
              let _, commit_op, _, _ = Option.get c.commit_on_chain in
              match Ledger.spender_of ctx.ledger commit_op with
              | None -> split
              | Some settlement ->
                  split
                  @
                  if expected_state c settlement.Tx.outputs then
                    settle c (Closed c.cfg.id)
                  else
                    (* Our old commit was punished (we must have been
                       acting dishonestly) — or a forgery occurred. *)
                    settle c
                      (Protocol_error (c.cfg.id, "commit output claimed by revocation")))
          | None -> (
              (* Not an enforceable commit: expected closure or fraud. *)
              if expected_state c spender.Tx.outputs then settle c (Closed c.cfg.id)
              else
                match c.punish_posted with
                | Some rv ->
                    (* Already reacting: settle once the revocation lands. *)
                    if
                      (not (Ledger.is_unspent ctx.ledger fund_op))
                      && Ledger.find_utxo ctx.ledger (Tx.outpoint_of rv 0) <> None
                    then settle c (Punished c.cfg.id)
                    else []
                | None -> punish c spender)))

(** Create step 6: once the funding transaction is recorded, the
    channel becomes operational. Also resolves the refund race — if the
    funding lands despite a posted refund, or the peer posted it while
    we still wait for its funding signature, the channel proceeds (all
    state-0 data is already in hand) — and creation completes under us
    even if the funding output is already spent. *)
let check_funding_confirmed (ctx : ctx) (c : chan) : action list =
  match (c.phase, c.fund) with
  | (Await_create_fund | Await_funding_confirm | Refunding), Some fund
    when Ledger.is_unspent ctx.ledger (Tx.outpoint_of fund 0)
         || c.phase <> Await_create_fund
            && Ledger.spender_of ctx.ledger (Tx.outpoint_of fund 0) <> None ->
      c.phase <- Operational;
      c.deadline <- None;
      [ Emit (Created c.cfg.id) ]
  | _ -> []

(** Timeout transitions. *)
let check_deadline (ctx : ctx) (c : chan) : action list =
  match c.deadline with
  | Some d when ctx.round >= d -> (
      c.deadline <- None;
      match c.phase with
      | Await_create_info | Await_create_com | Await_create_fund -> post_refund ctx c
      | Await_funding_confirm | Refunding ->
          (* Neither the funding nor the refund made it: report and stop. *)
          settle c (Aborted c.cfg.id)
      | Upd_await_info ->
          (* Responder declined or vanished before revealing anything:
             the update simply does not happen (consensus on update). *)
          c.pending <- None;
          c.phase <- Operational;
          [ Emit (Update_rejected c.cfg.id) ]
      | Upd_await_com_initiator | Upd_await_com_responder
      | Upd_await_revoke_initiator | Upd_await_revoke_responder
      | Close_await_ack ->
          close_unilaterally c
      | Close_await_confirm ->
          if c.outcome = None then
            [ Emit (Protocol_error (c.cfg.id, "close did not confirm in time")) ]
          else []
      | Operational | Force_closed_waiting | Done -> [])
  | _ -> []

(* ------------------------------------------------------------------ *)
(* The core transition and its shells.                                 *)

type input = Deliver of Wire.msg Daric_chain.Network.envelope | Tick

(** One transition of channel [c]: a delivered message (dropped unless
    the channel's peer sent it) or the end-of-round tick (the Punish
    daemon, split scheduling, timeouts). *)
let step (t : t) (ctx : ctx) (c : chan) (input : input) : action list =
  match input with
  | Deliver env ->
      if String.equal env.sender c.cfg.peer then on_msg t ctx c env.payload
      else []
  | Tick when c.phase = Done -> []
  | Tick ->
      let funded = check_funding_confirmed ctx c in
      let punish = punish_daemon ctx c in
      if c.phase = Done then funded @ punish
      else
        let split = try_post_split ctx c in
        funded @ punish @ split @ check_deadline ctx c

(** Process one delivered protocol message. Ill-formed or unexpected
    messages are dropped (protocol wrapper W_P of Appendix F). *)
let handle_msg (t : t) (ctx : ctx) (env : Wire.msg Daric_chain.Network.envelope)
    : unit =
  match find_chan t (Wire.channel_id env.payload) with
  | None -> ()
  | Some c -> apply t ctx c (step t ctx c (Deliver env))

(** End-of-round processing: Punish daemon, split scheduling, timeouts. *)
let end_of_round (t : t) (ctx : ctx) : unit =
  List.iter (fun (_, c) -> apply t ctx c (step t ctx c Tick)) t.chans

(** INTRO: start creating the channel. [tid] must reference a P2WPKH
    output controlled by our main key holding our side's balance;
    tests that pre-mint that output pass the pre-generated [keys]. *)
let intro (t : t) (ctx : ctx) ?(keys : Keys.t option) ~(cfg : config)
    ~(tid : Tx.outpoint) () : unit =
  if List.mem_assoc cfg.id t.chans then invalid_arg "duplicate channel id";
  if cfg.rel_lock <= Ledger.delta ctx.ledger then
    invalid_arg "rel_lock (T) must exceed the ledger delay";
  let keys = match keys with Some k -> k | None -> Keys.generate t.rng in
  let c =
    { cfg;
      keys;
      sctx = sctx_of_keys keys;
      pinned_pks = [];
      their_keys = None;
      tid_mine = Some tid;
      tid_theirs = None;
      fund = None;
      fund_sig_mine = None;
      fund_sig_theirs = None;
      sn = 0;
      st = [];
      flag = 1;
      st' = None;
      commit_mine = None;
      commit_theirs_body = None;
      split = None;
      rev_sig_theirs = None;
      rev_sig_mine = None;
      pending = None;
      requested_theta = None;
      phase = Await_create_info;
      deadline = Some (ctx.round + 2);
      fin_split = None;
      commit_on_chain = None;
      split_posted = false;
      punish_posted = None;
      outcome = None }
  in
  t.chans <- (cfg.id, c) :: t.chans;
  c.pinned_pks <- pin_own_keys c;
  apply t ctx c [ Send (Wire.Create_info { id = cfg.id; tid; keys = Keys.pub keys }) ]

(** UPDATE (initiator): propose the new state [theta]. *)
let request_update (t : t) (ctx : ctx) ~(id : string) ~(theta : Tx.output list)
    ?(tstp : int = 0) () : unit =
  let c = chan_exn t id in
  apply t ctx c (update_req ctx c ~theta ~tstp)

(** CLOSE: propose a collaborative close at the current state. *)
let request_close (t : t) (ctx : ctx) ~(id : string) : unit =
  let c = chan_exn t id in
  apply t ctx c (close_req t ctx c)

(** ForceClose on the environment's command. *)
let force_close (t : t) (ctx : ctx) (c : chan) : unit =
  apply t ctx c (close_unilaterally c)
