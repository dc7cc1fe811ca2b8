(** Executable Generalized channel [Aumayr et al., ASIACRYPT 2021].

    Punish-then-split with a SINGLE commit transaction per state (no
    state duplication), made possible by adaptor signatures: each party
    holds the counter-party's *pre-signature* on the commit transaction
    with respect to its own per-state publishing statement Y = g^y.
    Publishing requires adapting the pre-signature, which reveals the
    witness y on chain; combined with the revocation preimage exchanged
    when the state was revoked, the victim can take all funds.

    Storage: the per-state revocation preimages received from the
    counter-party accumulate — O(n), as in Table 1. One exponentiation
    per update (the fresh statement), 3 signs, 2 verifies (Table 3). *)

module Tx = Daric_tx.Tx
module Sighash = Daric_tx.Sighash
module Script = Daric_script.Script
module Schnorr = Daric_crypto.Schnorr
module Adaptor = Daric_crypto.Adaptor
module Ledger = Daric_chain.Ledger
module Keys = Daric_core.Keys

type state_secrets = {
  y : Adaptor.witness;  (** own publishing witness *)
  y_stmt : Adaptor.statement;
  rev_preimage : string;  (** own revocation preimage *)
}

type side = {
  main : Keys.keypair;  (** funding + split keys *)
  punish : Keys.keypair;  (** second key of the punish branch *)
  mutable current : state_secrets;
  mutable peer_stmt : Adaptor.statement;  (** counter-party's current Y *)
  mutable peer_rev_hash : string;  (** hash of the peer's current preimage *)
  mutable pre_sig_from_peer : Adaptor.pre_signature;
      (** peer's pre-signature on the current commit w.r.t. our Y *)
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
  mutable commit : Tx.t;  (** current commit body (single, shared) *)
  mutable split : Tx.t;  (** current split body, SIGHASH_ALL pre-signed *)
  mutable split_sigs : string * string;
  mutable stmt_log : Adaptor.statement list;
      (** every publishing statement ever placed in a commit script —
          revoked states' statements stay script-visible, so the
          static-analysis key inventory must remember them *)
  mutable ops : Scheme_intf.ops;
}

(** Commit output script (the 228-byte script of Appendix H.2, adapted
    to our executable primitives):
    [IF
       IF   2 <Y_A> <punishB> 2 CMSV  SHA256 <h_revA> EQUAL   (punish A)
       ELSE 2 <Y_B> <punishA> 2 CMSV  SHA256 <h_revB> EQUAL   (punish B)
       ENDIF
     ELSE <delta> CSV DROP 2 <pkA> <pkB> 2 CMS                 (split)
     ENDIF] *)
let commit_script (t : t) ~(y_a : Adaptor.statement) ~(y_b : Adaptor.statement)
    ~(h_rev_a : string) ~(h_rev_b : string) : Script.t =
  [ Script.If; If; Small 2; Push (Keys.enc y_a);
    Push (Keys.enc t.b.punish.Keys.pk); Small 2; Checkmultisigverify; Sha256;
    Push h_rev_a; Equal; Else; Small 2; Push (Keys.enc y_b);
    Push (Keys.enc t.a.punish.Keys.pk); Small 2; Checkmultisigverify; Sha256;
    Push h_rev_b; Equal; Endif; Else; Num t.rel_lock; Csv; Drop; Small 2;
    Push (Keys.enc t.a.main.Keys.pk); Push (Keys.enc t.b.main.Keys.pk); Small 2;
    Checkmultisig; Endif ]

let fresh_secrets (rng : Daric_util.Rng.t) : state_secrets =
  let y, y_stmt = Adaptor.gen_statement rng in
  { y; y_stmt; rev_preimage = Daric_util.Rng.bytes rng 32 }

let gen_commit (t : t) : Tx.t =
  let script =
    commit_script t ~y_a:t.a.current.y_stmt ~y_b:t.b.current.y_stmt
      ~h_rev_a:(Daric_crypto.Sha256.digest t.a.current.rev_preimage)
      ~h_rev_b:(Daric_crypto.Sha256.digest t.b.current.rev_preimage)
  in
  Tx.make ~inputs:[ Tx.input_of_outpoint (Tx.outpoint_of t.fund 0) ] ~outputs:[ { Tx.value = t.cash; spk = Tx.P2wsh (Script.hash script) } ] ()

let gen_split (t : t) ~(bal_a : int) ~(bal_b : int) : Tx.t =
  Tx.make ~inputs:[ Tx.input_of_outpoint (Tx.outpoint_of t.commit 0) ] ~outputs:(Daric_core.Txs.balance_state ~pk_a:t.a.main.Keys.pk ~pk_b:t.b.main.Keys.pk
        ~bal_a ~bal_b) ()

(** Exchange pre-signatures and split signatures for the current
    commit/split pair. *)
let sign_state (t : t) ~(bal_a : int) ~(bal_b : int) : unit =
  t.stmt_log <- t.a.current.y_stmt :: t.b.current.y_stmt :: t.stmt_log;
  t.commit <- gen_commit t;
  let commit_msg = Sighash.message All t.commit ~input_index:0 in
  (* B pre-signs for A (w.r.t. Y_A): A needs it to publish. *)
  t.a.pre_sig_from_peer <-
    Adaptor.pre_sign t.b.main.Keys.sk t.a.current.y_stmt commit_msg;
  t.b.pre_sig_from_peer <-
    Adaptor.pre_sign t.a.main.Keys.sk t.b.current.y_stmt commit_msg;
  t.a.peer_stmt <- t.b.current.y_stmt;
  t.b.peer_stmt <- t.a.current.y_stmt;
  t.a.peer_rev_hash <- Daric_crypto.Sha256.digest t.b.current.rev_preimage;
  t.b.peer_rev_hash <- Daric_crypto.Sha256.digest t.a.current.rev_preimage;
  t.split <- gen_split t ~bal_a ~bal_b;
  let split_msg = Sighash.message All t.split ~input_index:0 in
  t.split_sigs <-
    ( Sighash.sign_message t.a.main.Keys.sk All split_msg,
      Sighash.sign_message t.b.main.Keys.sk All split_msg );
  (* per party: pre-sig + split sig + watchtower revocation sig *)
  t.ops <- Scheme_intf.ops_add ~signs:3 ~verifies:2 ~exps:1 t.ops

let dummy_presig = { Adaptor.r = 1; s_pre = 0 }

let create ?(rel_lock = 3) ~(ledger : Ledger.t) ~(rng : Daric_util.Rng.t)
    ~(bal_a : int) ~(bal_b : int) () : t =
  let mk_side () =
    { main = Keys.keygen rng;
      punish = Keys.keygen rng;
      current = fresh_secrets rng;
      peer_stmt = 1;
      peer_rev_hash = "";
      pre_sig_from_peer = dummy_presig;
      received_preimages = [] }
  in
  let a = mk_side () and b = mk_side () in
  let cash = bal_a + bal_b in
  let fund = Scheme_intf.fund_2of2 ledger ~value:cash a.main b.main in
  let empty = Tx.make ~inputs:[] ~outputs:[] () in
  let t =
    { ledger; rng = Daric_util.Rng.split rng; cash; rel_lock; fund; a; b;
      sn = 0; commit = empty; split = empty; split_sigs = ("", "");
      stmt_log = []; ops = Scheme_intf.ops_zero }
  in
  sign_state t ~bal_a ~bal_b;
  t

(** Update: fresh statements and preimages, new commit/split pair, then
    revocation of the old state by exchanging the old preimages.
    Returns what a cheater would need to replay the old state. *)
type old_state = {
  o_commit : Tx.t;
  o_index : int;
  o_presig_a : Adaptor.pre_signature;  (** B's pre-sig for publisher A *)
  o_y_a : Adaptor.witness;
  o_script : Script.t;
}

let update (t : t) ~(bal_a : int) ~(bal_b : int) : old_state =
  let old =
    { o_commit = t.commit;
      o_index = t.sn;
      o_presig_a = t.a.pre_sig_from_peer;
      o_y_a = t.a.current.y;
      o_script =
        commit_script t ~y_a:t.a.current.y_stmt ~y_b:t.b.current.y_stmt
          ~h_rev_a:(Daric_crypto.Sha256.digest t.a.current.rev_preimage)
          ~h_rev_b:(Daric_crypto.Sha256.digest t.b.current.rev_preimage) }
  in
  let old_a = t.a.current and old_b = t.b.current in
  t.sn <- t.sn + 1;
  t.a.current <- fresh_secrets t.rng;
  t.b.current <- fresh_secrets t.rng;
  sign_state t ~bal_a ~bal_b;
  (* revocation: exchange the old preimages *)
  t.a.received_preimages <- (t.sn - 1, old_b.rev_preimage) :: t.a.received_preimages;
  t.b.received_preimages <- (t.sn - 1, old_a.rev_preimage) :: t.b.received_preimages;
  old

(** Publish a commit as party A: adapt B's pre-signature with own
    witness (revealing it on chain) and attach own signature. *)
let publish_commit_as_a (t : t) (o : old_state) : Tx.t =
  let msg = Sighash.message All o.o_commit ~input_index:0 in
  let full_b = Adaptor.adapt o.o_presig_a o.o_y_a in
  let sig_b =
    let b = Bytes.of_string (Schnorr.encode_signature full_b) in
    Bytes.set b (Bytes.length b - 1) '\001';
    Bytes.unsafe_to_string b
  in
  let sig_a = Sighash.sign_message t.a.main.Keys.sk All msg in
  let script = Scheme_intf.multisig_2of2 t.a.main t.b.main in
  Tx.with_witnesses o.o_commit [ [ Tx.Data ""; Tx.Data sig_a; Tx.Data sig_b; Tx.Wscript script ] ]

(** Victim B: extract A's publishing witness from the on-chain adapted
    signature, look up the revoked preimage, and claim all funds. *)
let punish_as_b (t : t) ~(published : Tx.t) (o : old_state) : Tx.t option =
  match List.assoc_opt o.o_index t.b.received_preimages with
  | None -> None
  | Some preimage ->
      let sig_b_bytes =
        match published.Tx.witnesses with
        | [ [ _; _; Tx.Data s; _ ] ] -> s
        | _ -> ""
      in
      (match Schnorr.decode_signature sig_b_bytes with
      | None -> None
      | Some full_b ->
          let y_a = Adaptor.extract full_b o.o_presig_a in
          let body =
            Tx.make ~inputs:[ Tx.input_of_outpoint (Tx.outpoint_of published 0) ]
              ~outputs:[ Scheme_intf.pay_to_pk ~value:t.cash t.b.main.Keys.pk ] ()
          in
          let sig_y = Sighash.sign y_a All body ~input_index:0 in
          let sig_p = Sighash.sign t.b.punish.Keys.sk All body ~input_index:0 in
          Some
            (Tx.with_witnesses body [ [ Tx.Data preimage; Tx.Data ""; Tx.Data sig_y; Tx.Data sig_p;
                    Tx.Data "\001"; Tx.Data "\001"; Tx.Wscript o.o_script ] ]))

(** Honest split after the CSV delay. *)
let split_completed (t : t) : Tx.t =
  let script =
    commit_script t ~y_a:t.a.current.y_stmt ~y_b:t.b.current.y_stmt
      ~h_rev_a:(Daric_crypto.Sha256.digest t.a.current.rev_preimage)
      ~h_rev_b:(Daric_crypto.Sha256.digest t.b.current.rev_preimage)
  in
  let sig_a, sig_b = t.split_sigs in
  Tx.with_witnesses t.split [ [ Tx.Data ""; Tx.Data sig_a; Tx.Data sig_b; Tx.Data ""; Tx.Wscript script ] ]

let commit_completed_latest (t : t) : Tx.t =
  publish_commit_as_a t
    { o_commit = t.commit;
      o_index = t.sn;
      o_presig_a = t.a.pre_sig_from_peer;
      o_y_a = t.a.current.y;
      o_script = [] }

let funding_outpoint (t : t) : Tx.outpoint = Tx.outpoint_of t.fund 0

let storage_bytes (t : t) ~(who : [ `A | `B ]) : int =
  let side = match who with `A -> t.a | `B -> t.b in
  let kp = 4 + Schnorr.public_key_size in
  (2 * kp) + (3 * 4) (* current secrets *)
  + (2 * Schnorr.signature_size) (* pre-sig + split sig held *)
  + Tx.non_witness_size t.commit
  + Tx.non_witness_size t.split
  + (List.length side.received_preimages * (4 + 32))

(* ------------------------------------------------------------------ *)
(* SCHEME instance.                                                    *)

module Scheme : Scheme_intf.SCHEME = struct
  module I = Scheme_intf

  let name = "Generalized"
  let has_watchtower = true

  type nonrec t = {
    env : I.env;
    ch : t;
    mutable bal : int * int;
    mutable revoked : old_state option;  (** first revoked state *)
  }

  let open_channel (env : I.env) (cfg : I.config) =
    let ch =
      create ~rel_lock:cfg.rel_lock ~ledger:env.ledger ~rng:env.rng
        ~bal_a:cfg.bal_a ~bal_b:cfg.bal_b ()
    in
    Ok { env; ch; bal = (cfg.bal_a, cfg.bal_b); revoked = None }

  let update s ~bal_a ~bal_b =
    let old = update s.ch ~bal_a ~bal_b in
    if s.revoked = None then s.revoked <- Some old;
    s.bal <- (bal_a, bal_b);
    Ok ()

  let sn s = s.ch.sn
  let funding s = funding_outpoint s.ch
  let party_bytes s = storage_bytes s.ch ~who:`A
  let watchtower_bytes s = Some (List.length s.ch.a.received_preimages * (4 + 32))

  let ops s = s.ch.ops

  let known_pubkeys s =
    List.map Keys.enc
      [ s.ch.a.main.Keys.pk; s.ch.b.main.Keys.pk; s.ch.a.punish.Keys.pk;
        s.ch.b.punish.Keys.pk ]
    @ List.map Keys.enc s.ch.stmt_log

  let collaborative_close s =
    let bal_a, bal_b = s.bal in
    I.coop_close_2of2 s.env ~scheme:name ~outpoint:(funding s)
      ~outputs:
        (Daric_core.Txs.balance_state ~pk_a:s.ch.a.main.Keys.pk
           ~pk_b:s.ch.b.main.Keys.pk ~bal_a ~bal_b)
      s.ch.a.main s.ch.b.main

  (* Cheating A adapts B's pre-signature to publish a revoked commit —
     revealing the publishing witness — and B punishes with it plus the
     revoked preimage. *)
  let dishonest_close s =
    match s.revoked with
    | None -> I.no_revoked_state ~scheme:name
    | Some old ->
        let published = publish_commit_as_a s.ch old in
        I.dispute s.env ~scheme:name ~revoked_i:old.o_index ~published
          ~punish:(fun () -> punish_as_b s.ch ~published old)

  (* Publish the latest commit, wait out the CSV delay, then split. *)
  let force_close s =
    I.unilateral s.env ~scheme:name ~commit:(commit_completed_latest s.ch)
      ~wait:s.ch.rel_lock
      ~sweep:(fun () -> split_completed s.ch)
end
