(** Executable FPPW channel [Mirzaei et al. 2021] (simplified).

    FPPW is a Lightning-style channel whose watchtower is *fair*: its
    collateral guarantees the client's funds. Operationally (following
    Appendix H.5) each party's commit transaction has two outputs:
    - the main output, revocable by a 3-of-3 multisig among the two
      parties and the watchtower (184-byte script) or splittable after
      the CSV delay;
    - a collateral output carrying the watchtower penalty branches
      (259-byte script).
    Revocation needs per-state data from both the counter-party and
    the watchtower, so party and watchtower storage grow linearly.
    Per update each party produces 6 signatures and verifies 10
    (Table 3). This model reproduces the closure transactions
    byte-for-byte (dishonest closure: 224+897 witness, 137+94
    non-witness = 2045 WU). *)

module Tx = Daric_tx.Tx
module Sighash = Daric_tx.Sighash
module Script = Daric_script.Script
module Schnorr = Daric_crypto.Schnorr
module Ledger = Daric_chain.Ledger
module Keys = Daric_core.Keys

type side = {
  main : Keys.keypair;
  pen : Keys.keypair;  (** penalty-branch key *)
  mutable rev_current : Keys.keypair;  (** per-state revocation key *)
  mutable received_rev : (int * Schnorr.secret_key) list;  (** O(n) *)
}

type t = {
  ledger : Ledger.t;
  rng : Daric_util.Rng.t;
  cash : int;
  collateral : int;
  rel_lock : int;
  fund : Tx.t;
  wt : Keys.keypair;  (** watchtower key *)
  mutable wt_rev : (int * Keys.keypair) list;  (** watchtower per-state data *)
  a : side;
  b : side;
  mutable sn : int;
  mutable commit_a : Tx.t;
  mutable ops : Scheme_intf.ops;
}

(** Main commit output (Appendix H.5, 184 bytes):
    [IF 3 <revA> <revB> <revW> 3 CMS
     ELSE <t> CSV DROP 2 <splA> <splB> 2 CMS ENDIF] *)
let main_script (t : t) ~(rev_a : Schnorr.public_key)
    ~(rev_b : Schnorr.public_key) ~(rev_w : Schnorr.public_key) : Script.t =
  [ Script.If; Small 3; Push (Keys.enc rev_a); Push (Keys.enc rev_b);
    Push (Keys.enc rev_w); Small 3; Checkmultisig; Else; Num t.rel_lock; Csv;
    Drop; Small 2; Push (Keys.enc t.a.main.Keys.pk);
    Push (Keys.enc t.b.main.Keys.pk); Small 2; Checkmultisig; Endif ]

(** Collateral output (259 bytes): revocation 3-of-3, then delayed
    penalty branches pairing each party's penalty key with the other's
    per-state statement. *)
let collateral_script (t : t) ~(rev_a : Schnorr.public_key)
    ~(rev_b : Schnorr.public_key) ~(rev_w : Schnorr.public_key)
    ~(y_a : Schnorr.public_key) ~(y_b : Schnorr.public_key) : Script.t =
  [ Script.If; Small 3; Push (Keys.enc rev_a); Push (Keys.enc rev_b);
    Push (Keys.enc rev_w); Small 3; Checkmultisig; Else; Num t.rel_lock; Csv;
    Drop; If; Small 2; Push (Keys.enc t.b.pen.Keys.pk); Push (Keys.enc y_a);
    Small 2; Checkmultisig; Else; Small 2; Push (Keys.enc t.a.pen.Keys.pk);
    Push (Keys.enc y_b); Small 2; Checkmultisig; Endif; Endif ]

let gen_commit (t : t) : Tx.t =
  let rev_a = t.a.rev_current.Keys.pk and rev_b = t.b.rev_current.Keys.pk in
  let rev_w = (List.assoc t.sn t.wt_rev).Keys.pk in
  let y_a = t.a.pen.Keys.pk and y_b = t.b.pen.Keys.pk in
  Tx.make ~inputs:[ Tx.input_of_outpoint ~sequence:t.sn (Tx.outpoint_of t.fund 0) ] ~outputs:[ { Tx.value = t.cash;
          spk = Tx.P2wsh (Script.hash (main_script t ~rev_a ~rev_b ~rev_w)) };
        { Tx.value = t.collateral;
          spk =
            Tx.P2wsh
              (Script.hash (collateral_script t ~rev_a ~rev_b ~rev_w ~y_a ~y_b)) } ] ()

let sign_commit (t : t) : Tx.t -> Tx.t =
  Scheme_intf.cosign_2of2 t.a.main t.b.main

let create ?(rel_lock = 3) ~(ledger : Ledger.t) ~(rng : Daric_util.Rng.t)
    ~(bal_a : int) ~(bal_b : int) () : t =
  let mk_side () =
    { main = Keys.keygen rng; pen = Keys.keygen rng;
      rev_current = Keys.keygen rng; received_rev = [] }
  in
  let a = mk_side () and b = mk_side () in
  let wt = Keys.keygen rng in
  let cash = bal_a + bal_b in
  let collateral = cash in
  let fund = Scheme_intf.fund_2of2 ledger ~value:(cash + collateral) a.main b.main in
  let t =
    { ledger; rng = Daric_util.Rng.split rng; cash; collateral; rel_lock; fund;
      wt; wt_rev = [ (0, Keys.keygen rng) ]; a; b; sn = 0;
      commit_a = Tx.make ~inputs:[] ~outputs:[] ();
      ops = Scheme_intf.ops_zero }
  in
  (* oversize funding carries the watchtower collateral; split cash
     only between the parties *)
  t.commit_a <- sign_commit t (gen_commit t);
  t

(** Update: fresh revocation keys all around (party, counter-party,
    watchtower), reveal the old ones. Table 3 ops: 6 signs / 10
    verifies / 1 exp per party. *)
let update (t : t) ~(bal_a : int) ~(bal_b : int) : Tx.t =
  ignore (bal_a, bal_b);
  let old = t.commit_a in
  let old_rev_a = t.a.rev_current and old_rev_b = t.b.rev_current in
  t.sn <- t.sn + 1;
  t.a.rev_current <- Keys.keygen t.rng;
  t.b.rev_current <- Keys.keygen t.rng;
  t.wt_rev <- (t.sn, Keys.keygen t.rng) :: t.wt_rev;
  t.commit_a <- sign_commit t (gen_commit t);
  t.a.received_rev <- (t.sn - 1, old_rev_b.Keys.sk) :: t.a.received_rev;
  t.b.received_rev <- (t.sn - 1, old_rev_a.Keys.sk) :: t.b.received_rev;
  t.ops <- Scheme_intf.ops_add ~signs:6 ~verifies:10 ~exps:1 t.ops;
  old

(** Punish a revoked commit: one transaction spending BOTH outputs
    with the 3-of-3 revocation branches (Appendix H.5: 897 witness +
    94 non-witness bytes). *)
let punish (t : t) ~(victim : [ `A | `B ]) ~(published : Tx.t) : Tx.t option =
  let side = match victim with `A -> t.a | `B -> t.b in
  let revoked = Scheme_intf.revoked_index published in
  match
    (List.assoc_opt revoked side.received_rev, List.assoc_opt revoked t.wt_rev)
  with
  | Some peer_rev_sk, Some wt_rev ->
      let own_rev_sk =
        (* the victim archived its own per-state revocation secrets too;
           regenerate deterministically is not possible here, so the
           model keeps them via received_rev of the OTHER side *)
        match victim with
        | `A -> List.assoc revoked t.b.received_rev
        | `B -> List.assoc revoked t.a.received_rev
      in
      let rev_a_sk, rev_b_sk =
        match victim with
        | `A -> (own_rev_sk, peer_rev_sk)
        | `B -> (peer_rev_sk, own_rev_sk)
      in
      let rev_a = Schnorr.public_key_of_secret rev_a_sk in
      let rev_b = Schnorr.public_key_of_secret rev_b_sk in
      let rev_w = wt_rev.Keys.pk in
      let main = main_script t ~rev_a ~rev_b ~rev_w in
      let coll =
        collateral_script t ~rev_a ~rev_b ~rev_w ~y_a:t.a.pen.Keys.pk
          ~y_b:t.b.pen.Keys.pk
      in
      let body =
        Tx.make ~inputs:[ Tx.input_of_outpoint (Tx.outpoint_of published 0);
              Tx.input_of_outpoint (Tx.outpoint_of published 1) ] ~outputs:[ { Tx.value = t.cash + t.collateral;
                spk = Tx.P2wsh (Script.hash (Script.p2pk (Keys.enc side.main.Keys.pk))) } ] ()
      in
      let sign i sk = Sighash.sign sk All body ~input_index:i in
      let wit i script =
        [ Tx.Data ""; Tx.Data (sign i rev_a_sk); Tx.Data (sign i rev_b_sk);
          Tx.Data (sign i wt_rev.Keys.sk); Tx.Data "\001"; Tx.Wscript script ]
      in
      Some (Tx.with_witnesses body [ wit 0 main; wit 1 coll ])
  | _ -> None

let commit_latest (t : t) : Tx.t = t.commit_a
let funding_outpoint (t : t) : Tx.outpoint = Tx.outpoint_of t.fund 0

let storage_bytes (t : t) ~(who : [ `A | `B ]) : int =
  let side = match who with `A -> t.a | `B -> t.b in
  let kp = 4 + Schnorr.public_key_size in
  (3 * kp)
  + Tx.non_witness_size t.commit_a
  + Tx.witness_size t.commit_a
  + (List.length side.received_rev * 8)

let watchtower_bytes (t : t) : int = List.length t.wt_rev * (4 + 4 + 33)

(* ------------------------------------------------------------------ *)
(* SCHEME instance.                                                    *)

module Scheme : Scheme_intf.SCHEME = struct
  module I = Scheme_intf

  let name = "FPPW"
  let has_watchtower = true

  type nonrec t = {
    env : I.env;
    ch : t;
    mutable bal : int * int;
    mutable revoked : Tx.t option;  (** first superseded commit *)
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
  let watchtower_bytes s = Some (watchtower_bytes s.ch)

  let ops s = s.ch.ops

  let known_pubkeys s =
    let side_keys sd =
      Keys.enc sd.main.Keys.pk
      :: Keys.enc sd.pen.Keys.pk
      :: Keys.enc sd.rev_current.Keys.pk
      :: List.map
           (fun (_, sk) -> Keys.enc (Schnorr.public_key_of_secret sk))
           sd.received_rev
    in
    (Keys.enc s.ch.wt.Keys.pk
     :: List.map (fun (_, kp) -> Keys.enc kp.Keys.pk) s.ch.wt_rev)
    @ side_keys s.ch.a @ side_keys s.ch.b

  (* The oversize funding output also carries the watchtower
     collateral, which a collaborative close returns to the tower. *)
  let collaborative_close s =
    let bal_a, bal_b = s.bal in
    I.coop_close_2of2 s.env ~scheme:name ~outpoint:(funding s)
      ~outputs:
        [ I.pay_to_pk ~value:bal_a s.ch.a.main.Keys.pk;
          I.pay_to_pk ~value:bal_b s.ch.b.main.Keys.pk;
          I.pay_to_pk ~value:s.ch.collateral s.ch.wt.Keys.pk ]
      s.ch.a.main s.ch.b.main

  let dishonest_close s =
    match s.revoked with
    | None -> I.no_revoked_state ~scheme:name
    | Some old_commit ->
        I.dispute s.env ~scheme:name ~revoked_i:(I.revoked_index old_commit)
          ~published:old_commit
          ~punish:(fun () -> punish s.ch ~victim:`B ~published:old_commit)

  (* Publish the latest commit; after the CSV delay split the main
     output via its 2-of-2 ELSE branch. *)
  let force_close s =
    let commit = commit_latest s.ch in
    I.unilateral s.env ~scheme:name ~commit ~wait:s.ch.rel_lock
      ~sweep:(fun () ->
        let bal_a, bal_b = s.bal in
        let script =
          main_script s.ch ~rev_a:s.ch.a.rev_current.Keys.pk
            ~rev_b:s.ch.b.rev_current.Keys.pk
            ~rev_w:(List.assoc s.ch.sn s.ch.wt_rev).Keys.pk
        in
        let body =
          Tx.make ~inputs:[ Tx.input_of_outpoint (Tx.outpoint_of commit 0) ] ~outputs:[ I.pay_to_pk ~value:bal_a s.ch.a.main.Keys.pk;
                I.pay_to_pk ~value:bal_b s.ch.b.main.Keys.pk ] ()
        in
        let sig_a = Sighash.sign s.ch.a.main.Keys.sk All body ~input_index:0 in
        let sig_b = Sighash.sign s.ch.b.main.Keys.sk All body ~input_index:0 in
        Tx.with_witnesses body [ [ Tx.Data ""; Tx.Data sig_a; Tx.Data sig_b; Tx.Data "";
                Tx.Wscript script ] ])
end
