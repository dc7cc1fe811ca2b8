(** Executable eltoo channel [Decker, Russell, Osuntokun 2018].

    Each state i is an (update, settlement) pair shared by both
    parties. Update transactions are floating: their 2-of-2 update-key
    signatures use ANYPREVOUT|SINGLE, so update_i can spend the funding
    output or the output of ANY earlier update_j (j < i) — and several
    channels' updates can be batched into one transaction, which is
    exactly what the Section 6.1 delay attack exploits. Settlement
    transactions are bound to their state by per-state settlement keys
    (derived from a constant-size seed) and gated by the CSV delay T.

    State ordering uses the CLTV(S0+i) prefix of the update output
    script against the spender's nLockTime, like Daric. There is no
    punishment: publishing an old update costs the publisher nothing
    but the fee. Party storage is O(1): the latest update + settlement
    pair and the key seed. *)

module Tx = Daric_tx.Tx
module Sighash = Daric_tx.Sighash
module Script = Daric_script.Script
module Schnorr = Daric_crypto.Schnorr
module Ledger = Daric_chain.Ledger
module Keys = Daric_core.Keys

type party_keys = {
  main : Keys.keypair;  (** balance payout key *)
  upd : Keys.keypair;  (** static update key *)
  seed : string;  (** derives the per-state settlement keys *)
}

let gen_party_keys (rng : Daric_util.Rng.t) : party_keys =
  { main = Keys.keygen rng; upd = Keys.keygen rng; seed = Daric_util.Rng.bytes rng 16 }

(** Per-state settlement key, derived deterministically from the seed —
    the derivation is what keeps party storage constant. This is the
    one exponentiation per update in Table 3's eltoo row. *)
let settlement_key (k : party_keys) ~(i : int) : Keys.keypair =
  let d = Daric_crypto.Hash.tagged "eltoo/setkey" (k.seed ^ string_of_int i) in
  let sk = 1 + (Daric_crypto.Hash.digest_to_int d mod (Daric_crypto.Group.q - 1)) in
  { Keys.sk; pk = Schnorr.public_key_of_secret sk }

(** Update output script for state i:
    [<S0+i> CLTV DROP
     IF   <T> CSV DROP 2 <setA_i> <setB_i> 2 CHECKMULTISIG   (settlement)
     ELSE 2 <updA> <updB> 2 CHECKMULTISIG                    (later update)
     ENDIF] *)
let update_script ~(s0 : int) ~(i : int) ~(rel_lock : int) ~(ka : party_keys)
    ~(kb : party_keys) : Script.t =
  let set_a = settlement_key ka ~i and set_b = settlement_key kb ~i in
  [ Script.Num (s0 + i); Cltv; Drop; If; Num rel_lock; Csv; Drop; Small 2;
    Push (Keys.enc set_a.Keys.pk); Push (Keys.enc set_b.Keys.pk); Small 2;
    Checkmultisig; Else; Small 2; Push (Keys.enc ka.upd.Keys.pk);
    Push (Keys.enc kb.upd.Keys.pk); Small 2; Checkmultisig; Endif ]

type t = {
  ledger : Ledger.t;
  ka : party_keys;
  kb : party_keys;
  cash : int;
  s0 : int;
  rel_lock : int;
  fund : Tx.t;
  mutable sn : int;
  mutable update_tx : Tx.t;  (** floating: no input, both APO|SINGLE sigs kept *)
  mutable update_sigs : string * string;
  mutable settlement : Tx.t;  (** floating, bound by per-state keys *)
  mutable settlement_sigs : string * string;
  mutable ops : Scheme_intf.ops;  (** cumulative, both parties *)
}

(** Floating update transaction body for state i: single output holding
    the channel funds under the state-i update script. *)
let gen_update (t : t) ~(i : int) : Tx.t =
  Tx.make ~locktime:(t.s0 + i) ~inputs:[] ~outputs:[ { Tx.value = t.cash;
          spk =
            Tx.P2wsh
              (Script.hash
                 (update_script ~s0:t.s0 ~i ~rel_lock:t.rel_lock ~ka:t.ka
                    ~kb:t.kb)) } ] ()

let gen_settlement (t : t) ~(theta : Tx.output list) ~(i : int) : Tx.t =
  Tx.make ~locktime:(t.s0 + i) ~inputs:[] ~outputs:theta ()

let balance_state (t : t) ~(bal_a : int) ~(bal_b : int) : Tx.output list =
  Daric_core.Txs.balance_state ~pk_a:t.ka.main.Keys.pk ~pk_b:t.kb.main.Keys.pk
    ~bal_a ~bal_b

let sign_update (t : t) (body : Tx.t) : string * string =
  t.ops <- Scheme_intf.ops_add ~signs:2 t.ops;
  ( Sighash.sign t.ka.upd.Keys.sk Anyprevout_single body ~input_index:0,
    Sighash.sign t.kb.upd.Keys.sk Anyprevout_single body ~input_index:0 )

let sign_settlement (t : t) (body : Tx.t) ~(i : int) : string * string =
  t.ops <- Scheme_intf.ops_add ~signs:2 ~exps:2 t.ops;
  (* deriving the two per-state settlement keys *)
  let sa = settlement_key t.ka ~i and sb = settlement_key t.kb ~i in
  ( Sighash.sign sa.Keys.sk Anyprevout body ~input_index:0,
    Sighash.sign sb.Keys.sk Anyprevout body ~input_index:0 )

(** Open a channel: publish the funding transaction (2-of-2 on the
    update keys) and establish state 0. [tid_a]/[tid_b] default to
    freshly minted outputs. *)
let create ?(s0 = 500_000_000) ?(rel_lock = 3) ~(ledger : Ledger.t)
    ~(rng : Daric_util.Rng.t) ~(bal_a : int) ~(bal_b : int) () : t =
  let ka = gen_party_keys rng and kb = gen_party_keys rng in
  let cash = bal_a + bal_b in
  let fund_src = Ledger.mint ledger ~value:cash ~spk:Tx.Op_return in
  (* The funding input is environment-owned in this model; the funding
     output is the 2-of-2 on the update keys, spendable by any floating
     update transaction. *)
  let fund =
    Tx.make ~witnesses:[ [] ] ~inputs:[ Tx.input_of_outpoint fund_src ] ~outputs:[ { Tx.value = cash;
            spk =
              Tx.Raw (Scheme_intf.multisig_2of2 ka.upd kb.upd) } ] ()
  in
  Ledger.record ledger fund;
  let t =
    { ledger; ka; kb; cash; s0; rel_lock; fund; sn = 0;
      update_tx = Tx.make ~inputs:[] ~outputs:[] ();
      update_sigs = ("", "");
      settlement = Tx.make ~inputs:[] ~outputs:[] ();
      settlement_sigs = ("", "");
      ops = Scheme_intf.ops_zero }
  in
  let upd0 = gen_update t ~i:0 in
  t.update_tx <- upd0;
  t.update_sigs <- sign_update t upd0;
  let set0 = gen_settlement t ~theta:(balance_state t ~bal_a ~bal_b) ~i:0 in
  t.settlement <- set0;
  t.settlement_sigs <- sign_settlement t set0 ~i:0;
  t

(** Off-chain update to a new state: replaces the stored update and
    settlement pair — old ones can simply be forgotten (storage O(1)).
    Returns the superseded (update, sigs) pair so adversarial tests can
    model a cheater who chose to keep it. *)
let update (t : t) ~(bal_a : int) ~(bal_b : int) :
    Tx.t * (string * string) =
  let old = (t.update_tx, t.update_sigs) in
  t.sn <- t.sn + 1;
  let upd = gen_update t ~i:t.sn in
  t.update_tx <- upd;
  t.update_sigs <- sign_update t upd;
  (* each party verifies the peer's update and settlement signatures *)
  t.ops <- Scheme_intf.ops_add ~verifies:4 t.ops;
  let set = gen_settlement t ~theta:(balance_state t ~bal_a ~bal_b) ~i:t.sn in
  t.settlement <- set;
  t.settlement_sigs <- sign_settlement t set ~i:t.sn;
  old

(** Complete a floating update transaction so that it spends [from]
    (the funding output or an earlier update output). For update
    outputs the witness selects the update (ELSE) branch of the
    revealed script [of_state]; for the funding output pass [`Funding].
    The state index of the spent output is needed to rebuild its
    script. *)
let complete_update (t : t) ((body, (sig_a, sig_b)) : Tx.t * (string * string))
    ~(from : [ `Funding | `Update of int ]) ~(outpoint : Tx.outpoint) : Tx.t =
  match from with
  | `Funding ->
      Tx.make ~locktime:body.Tx.locktime
        ~inputs:[ Tx.input_of_outpoint outpoint ]
        ~outputs:body.Tx.outputs
        ~witnesses:[ [ Tx.Data ""; Tx.Data sig_a; Tx.Data sig_b ] ]
        ()
  | `Update j ->
      let script =
        update_script ~s0:t.s0 ~i:j ~rel_lock:t.rel_lock ~ka:t.ka ~kb:t.kb
      in
      Tx.make ~locktime:body.Tx.locktime
        ~inputs:[ Tx.input_of_outpoint outpoint ]
        ~outputs:body.Tx.outputs
        ~witnesses:
          [ [ Tx.Data ""; Tx.Data sig_a; Tx.Data sig_b; Tx.Data "";
              Tx.Wscript script ] ]
        ()

(** Complete the floating settlement of state [i] to spend the state-i
    update output (only valid after T rounds). *)
let complete_settlement (t : t)
    ((body, (sig_a, sig_b)) : Tx.t * (string * string)) ~(i : int)
    ~(outpoint : Tx.outpoint) : Tx.t =
  let script = update_script ~s0:t.s0 ~i ~rel_lock:t.rel_lock ~ka:t.ka ~kb:t.kb in
  Tx.make ~locktime:body.Tx.locktime ~outputs:body.Tx.outputs
    ~inputs:[ Tx.input_of_outpoint outpoint ]
    ~witnesses:
      [ [ Tx.Data ""; Tx.Data sig_a; Tx.Data sig_b; Tx.Data "\001";
          Tx.Wscript script ] ]
    ()

let funding_outpoint (t : t) : Tx.outpoint = Tx.outpoint_of t.fund 0

let latest_update_completed (t : t) ~(from : [ `Funding | `Update of int ])
    ~(outpoint : Tx.outpoint) : Tx.t =
  complete_update t (t.update_tx, t.update_sigs) ~from ~outpoint

let latest_settlement_completed (t : t) ~(outpoint : Tx.outpoint) : Tx.t =
  complete_settlement t (t.settlement, t.settlement_sigs) ~i:t.sn ~outpoint

(** Constant-size party storage: keys + seed + the latest update and
    settlement pair with signatures. *)
let storage_bytes (t : t) : int =
  let kp = 4 + Schnorr.public_key_size in
  (2 * kp) + 16
  + Tx.non_witness_size t.update_tx
  + (2 * Schnorr.signature_size)
  + Tx.non_witness_size t.settlement
  + (2 * Schnorr.signature_size)

(* ------------------------------------------------------------------ *)
(* SCHEME instance.                                                    *)

module Scheme : Scheme_intf.SCHEME = struct
  module I = Scheme_intf

  let name = "eltoo"
  let has_watchtower = false

  type nonrec t = {
    env : I.env;
    ch : t;
    mutable revoked : (int * (Tx.t * (string * string))) option;
        (** first superseded (update, sigs) pair, kept by a cheater *)
  }

  let open_channel (env : I.env) (cfg : I.config) =
    let ch =
      create ~rel_lock:cfg.rel_lock ~ledger:env.ledger ~rng:env.rng
        ~bal_a:cfg.bal_a ~bal_b:cfg.bal_b ()
    in
    Ok { env; ch; revoked = None }

  let update s ~bal_a ~bal_b =
    let i = s.ch.sn in
    let old = update s.ch ~bal_a ~bal_b in
    if s.revoked = None then s.revoked <- Some (i, old);
    Ok ()

  let sn s = s.ch.sn
  let funding s = funding_outpoint s.ch
  let party_bytes s = storage_bytes s.ch
  let watchtower_bytes _ = None

  (* The protocol is symmetric: the module counts both parties' work,
     so halve for the per-party view every other scheme reports. *)
  let ops s = I.ops_div s.ch.ops 2

  let known_pubkeys s =
    let party_keys k =
      Keys.enc k.main.Keys.pk
      :: Keys.enc k.upd.Keys.pk
      :: List.init (s.ch.sn + 1) (fun i ->
             Keys.enc (settlement_key k ~i).Keys.pk)
    in
    party_keys s.ch.ka @ party_keys s.ch.kb

  (* The stored settlement already carries the latest balance split;
     the funding output is a raw 2-of-2 on the update keys. *)
  let collaborative_close s =
    I.coop_close s.env ~scheme:name ~outpoint:(funding s)
      ~outputs:s.ch.settlement.Tx.outputs ~sk_a:s.ch.ka.upd.Keys.sk
      ~sk_b:s.ch.kb.upd.Keys.sk

  (* No punishment in eltoo: the victim overrides the published old
     update with the latest one, then settles after the CSV delay. *)
  let dishonest_close s =
    match s.revoked with
    | None -> I.no_revoked_state ~scheme:name
    | Some (i, old_pair) ->
        let h0 = Ledger.height s.env.ledger in
        let ( let* ) = Result.bind in
        let old_tx =
          complete_update s.ch old_pair ~from:`Funding ~outpoint:(funding s)
        in
        let* () =
          I.post_confirmed s.env ~scheme:name ~stage:"dishonest_close" old_tx
        in
        let latest =
          latest_update_completed s.ch ~from:(`Update i)
            ~outpoint:(Tx.outpoint_of old_tx 0)
        in
        let* () =
          I.post_confirmed s.env ~scheme:name ~stage:"dishonest_close" latest
        in
        I.settle s.env s.ch.rel_lock;
        let settle_tx =
          latest_settlement_completed s.ch ~outpoint:(Tx.outpoint_of latest 0)
        in
        let* () =
          I.post_confirmed s.env ~scheme:name ~stage:"dishonest_close" settle_tx
        in
        I.outcome s.env ~h0
          ~resolved:(I.spent s.env (Tx.outpoint_of latest 0))
          [ I.Old_state_published i; I.Latest_published; I.Overridden;
            I.Settled ]

  let force_close s =
    let latest =
      latest_update_completed s.ch ~from:`Funding ~outpoint:(funding s)
    in
    I.unilateral s.env ~scheme:name ~commit:latest ~wait:s.ch.rel_lock
      ~sweep:(fun () ->
        latest_settlement_completed s.ch ~outpoint:(Tx.outpoint_of latest 0))
end
