(** Executable Lightning channel (penalty-based) [Poon, Dryja 2016].

    Each party holds its own commit transaction for the current state
    with a to_local output (revocable, CSV-delayed) and a to_remote
    output. Updating generates fresh per-state revocation key pairs
    (the two exponentiations per update of Table 3) and reveals the
    previous state's revocation secrets to the counter-party —
    the received secrets must be stored forever, which is the O(n)
    party/watchtower storage of Table 1. *)

module Tx = Daric_tx.Tx
module Sighash = Daric_tx.Sighash
module Script = Daric_script.Script
module Schnorr = Daric_crypto.Schnorr
module Ledger = Daric_chain.Ledger
module Keys = Daric_core.Keys

type party_keys = {
  main : Keys.keypair;  (** funding multisig + to_remote *)
  delayed : Keys.keypair;  (** to_local after the CSV delay *)
}

(** The BOLT-3 to_local script shape:
    [IF <revocation_pk> ELSE <T> CSV DROP <delayed_pk> ENDIF CHECKSIG] *)
let to_local_script ~(revocation_pk : Schnorr.public_key)
    ~(delayed_pk : Schnorr.public_key) ~(rel_lock : int) : Script.t =
  [ Script.If; Push (Keys.enc revocation_pk); Else; Num rel_lock; Csv; Drop;
    Push (Keys.enc delayed_pk); Endif; Checksig ]

type revocation = { index : int; secret : Schnorr.secret_key }

type side = {
  keys : party_keys;
  mutable rev_current : Keys.keypair;  (** this state's revocation keypair *)
  mutable received_secrets : revocation list;  (** O(n) growth *)
  mutable commit : Tx.t;  (** own fully-signed commit for the current state *)
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
  mutable ops : Scheme_intf.ops;
}

let empty_tx = Tx.make ~inputs:[] ~outputs:[] ()

(** Commit transaction held by [owner]: to_local (delayed/revocable by
    the owner's current revocation key) + to_remote (counter-party,
    immediate P2WPKH). *)
let gen_commit (t : t) ~(owner : [ `A | `B ]) ~(bal_own : int) ~(bal_other : int)
    ~(rev_pk : Schnorr.public_key) : Tx.t =
  let own, other = match owner with `A -> (t.a, t.b) | `B -> (t.b, t.a) in
  let to_local =
    { Tx.value = bal_own;
      spk =
        Tx.P2wsh
          (Script.hash
             (to_local_script ~revocation_pk:rev_pk
                ~delayed_pk:own.keys.delayed.Keys.pk ~rel_lock:t.rel_lock)) }
  in
  let to_remote = Scheme_intf.pay_to_pk ~value:bal_other other.keys.main.Keys.pk in
  Tx.make ~inputs:[ Tx.input_of_outpoint (Tx.outpoint_of t.fund 0) ] ~outputs:[ to_local; to_remote ] ()

let sign_commit (t : t) : Tx.t -> Tx.t =
  Scheme_intf.cosign_2of2 t.a.keys.main t.b.keys.main

let create ?(rel_lock = 3) ~(ledger : Ledger.t) ~(rng : Daric_util.Rng.t)
    ~(bal_a : int) ~(bal_b : int) () : t =
  let mk_side () =
    { keys = { main = Keys.keygen rng; delayed = Keys.keygen rng };
      rev_current = Keys.keygen rng;
      received_secrets = [];
      commit = empty_tx }
  in
  let a = mk_side () and b = mk_side () in
  let cash = bal_a + bal_b in
  let fund = Scheme_intf.fund_2of2 ledger ~value:cash a.keys.main b.keys.main in
  let t =
    { ledger; rng = Daric_util.Rng.split rng; cash; rel_lock; fund; a; b;
      sn = 0; ops = Scheme_intf.ops_zero }
  in
  t.a.commit <-
    sign_commit t (gen_commit t ~owner:`A ~bal_own:bal_a ~bal_other:bal_b
                     ~rev_pk:a.rev_current.Keys.pk);
  t.b.commit <-
    sign_commit t (gen_commit t ~owner:`B ~bal_own:bal_b ~bal_other:bal_a
                     ~rev_pk:b.rev_current.Keys.pk);
  t

(** Update the channel state. Each side generates a fresh revocation
    key pair (1 exponentiation each, +1 to verify the counter-party's),
    both commits are re-created, then the old revocation secrets are
    exchanged and stored — the storage that grows linearly. Returns the
    superseded commits so adversarial tests can replay them. *)
let update (t : t) ~(bal_a : int) ~(bal_b : int) : Tx.t * Tx.t =
  let old_a = t.a.commit and old_b = t.b.commit in
  let old_rev_a = t.a.rev_current and old_rev_b = t.b.rev_current in
  t.sn <- t.sn + 1;
  (* per party: 2 exps (generate own revocation key, verify the
     peer's); 2 signs (commit sig for peer + watchtower rev sig, m=0) *)
  t.ops <- Scheme_intf.ops_add ~signs:2 ~verifies:1 ~exps:2 t.ops;
  t.a.rev_current <- Keys.keygen t.rng;
  t.b.rev_current <- Keys.keygen t.rng;
  t.a.commit <-
    sign_commit t
      (gen_commit t ~owner:`A ~bal_own:bal_a ~bal_other:bal_b
         ~rev_pk:t.a.rev_current.Keys.pk);
  t.b.commit <-
    sign_commit t
      (gen_commit t ~owner:`B ~bal_own:bal_b ~bal_other:bal_a
         ~rev_pk:t.b.rev_current.Keys.pk);
  (* revocation-secret exchange: each side stores the peer's secret *)
  t.a.received_secrets <-
    { index = t.sn - 1; secret = old_rev_b.Keys.sk } :: t.a.received_secrets;
  t.b.received_secrets <-
    { index = t.sn - 1; secret = old_rev_a.Keys.sk } :: t.b.received_secrets;
  (old_a, old_b)

(** Penalty transaction: the victim spends the cheater's to_local
    output with the revealed revocation secret (IF branch). The
    to_remote output already belongs to the victim. *)
let penalty (t : t) ~(victim : [ `A | `B ]) ~(published : Tx.t)
    ~(revoked_index : int) : Tx.t option =
  let side = match victim with `A -> t.a | `B -> t.b in
  match
    List.find_opt (fun r -> r.index = revoked_index) side.received_secrets
  with
  | None -> None
  | Some { secret; _ } ->
      let rev_pk = Schnorr.public_key_of_secret secret in
      let cheater = match victim with `A -> t.b | `B -> t.a in
      let script =
        to_local_script ~revocation_pk:rev_pk
          ~delayed_pk:cheater.keys.delayed.Keys.pk ~rel_lock:t.rel_lock
      in
      let to_local_value = (List.nth published.Tx.outputs 0).Tx.value in
      let body =
        Tx.make ~inputs:[ Tx.input_of_outpoint (Tx.outpoint_of published 0) ]
          ~outputs:
            [ Scheme_intf.pay_to_pk ~value:to_local_value side.keys.main.Keys.pk ]
          ()
      in
      let sg = Sighash.sign secret All body ~input_index:0 in
      Some
        (Tx.with_witnesses body [ [ Tx.Data sg; Tx.Data "\001"; Tx.Wscript script ] ])

(** Non-collaborative close by [who]: post the own commit, then after T
    rounds sweep to_local with the delayed key. *)
let commit_of (t : t) (who : [ `A | `B ]) : Tx.t =
  (match who with `A -> t.a | `B -> t.b).commit

let sweep_to_local (t : t) ~(who : [ `A | `B ]) ~(published : Tx.t) : Tx.t =
  let side = match who with `A -> t.a | `B -> t.b in
  Scheme_intf.sweep_delayed
    ~script:
      (to_local_script ~revocation_pk:side.rev_current.Keys.pk
         ~delayed_pk:side.keys.delayed.Keys.pk ~rel_lock:t.rel_lock)
    ~sk:side.keys.delayed.Keys.sk ~to_pk:side.keys.main.Keys.pk published

let funding_outpoint (t : t) : Tx.outpoint = Tx.outpoint_of t.fund 0

(** Party storage: keys + own commit + the peer's revealed secrets —
    grows by one secret per update. *)
let storage_bytes (t : t) ~(who : [ `A | `B ]) : int =
  let side = match who with `A -> t.a | `B -> t.b in
  let kp = 4 + Schnorr.public_key_size in
  (3 * kp)
  + Tx.non_witness_size side.commit
  + Tx.witness_size side.commit
  + List.length side.received_secrets * (4 + 4)

(** A Lightning watchtower must keep penalty data for every revoked
    state. *)
let watchtower_bytes (t : t) : int =
  (* per revoked state: one pre-signed penalty descriptor (index +
     secret + txid hint), for each guarded side *)
  List.length t.a.received_secrets * (4 + 4 + 32)

(* ------------------------------------------------------------------ *)
(* SCHEME instance.                                                    *)

module Scheme : Scheme_intf.SCHEME = struct
  module I = Scheme_intf

  let name = "Lightning"
  let has_watchtower = true

  type nonrec t = {
    env : I.env;
    ch : t;
    mutable bal : int * int;
    mutable revoked : (int * Tx.t) option;
        (** A's first superseded commit, kept by a cheating A *)
  }

  let open_channel (env : I.env) (cfg : I.config) =
    let ch =
      create ~rel_lock:cfg.rel_lock ~ledger:env.ledger ~rng:env.rng
        ~bal_a:cfg.bal_a ~bal_b:cfg.bal_b ()
    in
    Ok { env; ch; bal = (cfg.bal_a, cfg.bal_b); revoked = None }

  let update s ~bal_a ~bal_b =
    let i = s.ch.sn in
    let old_a, _old_b = update s.ch ~bal_a ~bal_b in
    if s.revoked = None then s.revoked <- Some (i, old_a);
    s.bal <- (bal_a, bal_b);
    Ok ()

  let sn s = s.ch.sn
  let funding s = funding_outpoint s.ch
  let party_bytes s = storage_bytes s.ch ~who:`A
  let watchtower_bytes s = Some (watchtower_bytes s.ch)

  let ops s = s.ch.ops

  let known_pubkeys s =
    let side_keys sd =
      Keys.enc sd.keys.main.Keys.pk
      :: Keys.enc sd.keys.delayed.Keys.pk
      :: Keys.enc sd.rev_current.Keys.pk
      :: List.map
           (fun r -> Keys.enc (Schnorr.public_key_of_secret r.secret))
           sd.received_secrets
    in
    side_keys s.ch.a @ side_keys s.ch.b

  let collaborative_close s =
    let bal_a, bal_b = s.bal in
    I.coop_close_2of2 s.env ~scheme:name ~outpoint:(funding s)
      ~outputs:
        [ I.pay_to_pk ~value:bal_a s.ch.a.keys.main.Keys.pk;
          I.pay_to_pk ~value:bal_b s.ch.b.keys.main.Keys.pk ]
      s.ch.a.keys.main s.ch.b.keys.main

  (* Cheating A publishes the first revoked commit; victim B reacts
     with the penalty transaction inside the CSV window. *)
  let dishonest_close s =
    match s.revoked with
    | None -> I.no_revoked_state ~scheme:name
    | Some (i, old_commit) ->
        I.dispute s.env ~scheme:name ~revoked_i:i ~published:old_commit
          ~punish:(fun () ->
            penalty s.ch ~victim:`B ~published:old_commit ~revoked_index:i)

  (* A closes unilaterally at the latest state, then sweeps her
     to_local output once the CSV delay elapsed. *)
  let force_close s =
    let commit = commit_of s.ch `A in
    I.unilateral s.env ~scheme:name ~commit ~wait:s.ch.rel_lock
      ~sweep:(fun () -> sweep_to_local s.ch ~who:`A ~published:commit)
end
