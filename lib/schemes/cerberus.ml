(** Executable Cerberus channel [Avarikioti et al., FC 2020]
    (simplified).

    A Lightning-penalty-style channel whose watchtower is incentivized
    by collateral. Each party's commit transaction has two outputs
    (to_local and to_remote), BOTH revocable: the revocation branch is
    a 2-of-2 multisig between the victim's revocation key and the
    watchtower's (the 115-byte script of Appendix H.6), the normal
    branch is CSV-delayed to the owner. Punishing a revoked commit
    claims both outputs in a single transaction (534 witness + 123
    non-witness bytes; dishonest closure total 1798 WU). Per update
    each party signs 3 and verifies 6 (Table 3); storage is O(n). *)

module Tx = Daric_tx.Tx
module Sighash = Daric_tx.Sighash
module Script = Daric_script.Script
module Schnorr = Daric_crypto.Schnorr
module Ledger = Daric_chain.Ledger
module Keys = Daric_core.Keys

type side = {
  main : Keys.keypair;
  delayed : Keys.keypair;
  mutable rev_current : Keys.keypair;
  mutable received_rev : (int * Schnorr.secret_key) list;  (** O(n) *)
}

type t = {
  ledger : Ledger.t;
  rng : Daric_util.Rng.t;
  cash : int;
  rel_lock : int;
  fund : Tx.t;
  wt : Keys.keypair;
  mutable wt_rev : (int * Keys.keypair) list;
  a : side;
  b : side;
  mutable sn : int;
  mutable commit_a : Tx.t;
  mutable commit_b : Tx.t;
  mutable ops : Scheme_intf.ops;
}

(** The 115-byte output script of Appendix H.6:
    [IF 2 <rev_pk1> <rev_pk2> 2 CMS
     ELSE <T> CSV DROP <delayed_pk> CHECKSIG ENDIF] *)
let output_script (t : t) ~(rev_pk1 : Schnorr.public_key)
    ~(rev_pk2 : Schnorr.public_key) ~(delayed_pk : Schnorr.public_key) :
    Script.t =
  [ Script.If; Small 2; Push (Keys.enc rev_pk1); Push (Keys.enc rev_pk2);
    Small 2; Checkmultisig; Else; Num t.rel_lock; Csv; Drop;
    Push (Keys.enc delayed_pk); Checksig; Endif ]

let gen_commit (t : t) ~(owner : [ `A | `B ]) ~(bal_own : int)
    ~(bal_other : int) : Tx.t =
  let own, other = match owner with `A -> (t.a, t.b) | `B -> (t.b, t.a) in
  let wt_pk = (List.assoc t.sn t.wt_rev).Keys.pk in
  let out who bal =
    { Tx.value = bal;
      spk =
        Tx.P2wsh
          (Script.hash
             (output_script t ~rev_pk1:who.rev_current.Keys.pk ~rev_pk2:wt_pk
                ~delayed_pk:who.delayed.Keys.pk)) }
  in
  Tx.make ~inputs:[ Tx.input_of_outpoint ~sequence:t.sn (Tx.outpoint_of t.fund 0) ] ~outputs:[ out own bal_own; out other bal_other ] ()

let sign_commit (t : t) : Tx.t -> Tx.t =
  Scheme_intf.cosign_2of2 t.a.main t.b.main

let create ?(rel_lock = 3) ~(ledger : Ledger.t) ~(rng : Daric_util.Rng.t)
    ~(bal_a : int) ~(bal_b : int) () : t =
  let mk_side () =
    { main = Keys.keygen rng; delayed = Keys.keygen rng;
      rev_current = Keys.keygen rng; received_rev = [] }
  in
  let a = mk_side () and b = mk_side () in
  let cash = bal_a + bal_b in
  let fund = Scheme_intf.fund_2of2 ledger ~value:cash a.main b.main in
  let empty = Tx.make ~inputs:[] ~outputs:[] () in
  let t =
    { ledger; rng = Daric_util.Rng.split rng; cash; rel_lock; fund;
      wt = Keys.keygen rng; wt_rev = []; a; b; sn = 0; commit_a = empty;
      commit_b = empty; ops = Scheme_intf.ops_zero }
  in
  t.wt_rev <- [ (0, Keys.keygen t.rng) ];
  t.commit_a <- sign_commit t (gen_commit t ~owner:`A ~bal_own:bal_a ~bal_other:bal_b);
  t.commit_b <- sign_commit t (gen_commit t ~owner:`B ~bal_own:bal_b ~bal_other:bal_a);
  t

let update (t : t) ~(bal_a : int) ~(bal_b : int) : Tx.t * Tx.t =
  let old = (t.commit_a, t.commit_b) in
  let old_rev_a = t.a.rev_current and old_rev_b = t.b.rev_current in
  t.sn <- t.sn + 1;
  t.a.rev_current <- Keys.keygen t.rng;
  t.b.rev_current <- Keys.keygen t.rng;
  t.wt_rev <- (t.sn, Keys.keygen t.rng) :: t.wt_rev;
  t.commit_a <- sign_commit t (gen_commit t ~owner:`A ~bal_own:bal_a ~bal_other:bal_b);
  t.commit_b <- sign_commit t (gen_commit t ~owner:`B ~bal_own:bal_b ~bal_other:bal_a);
  t.a.received_rev <- (t.sn - 1, old_rev_b.Keys.sk) :: t.a.received_rev;
  t.b.received_rev <- (t.sn - 1, old_rev_a.Keys.sk) :: t.b.received_rev;
  (* no fresh statements/exponentiations beyond key hashing in this
     simplified model (Table 3: exp = 0) *)
  t.ops <- Scheme_intf.ops_add ~signs:3 ~verifies:6 t.ops;
  old

(** Punish a revoked commit published by the counter-party: spend both
    outputs through their revocation branches (victim + watchtower
    keys). *)
let punish (t : t) ~(victim : [ `A | `B ]) ~(published : Tx.t) : Tx.t option =
  let side = match victim with `A -> t.a | `B -> t.b in
  let cheater = match victim with `A -> t.b | `B -> t.a in
  let revoked = Scheme_intf.revoked_index published in
  match
    (List.assoc_opt revoked side.received_rev, List.assoc_opt revoked t.wt_rev)
  with
  | Some cheater_rev_sk, Some wt_rev ->
      (* output 0 = cheater's to_local (revocable with the cheater's
         leaked key); output 1 = victim's to_local on the cheater's
         commit, revocable with the victim's own old key — the victim
         archived it; regenerate via the OTHER side's received list *)
      let victim_rev_sk =
        match victim with
        | `A -> List.assoc revoked t.b.received_rev
        | `B -> List.assoc revoked t.a.received_rev
      in
      let body =
        Tx.make ~inputs:[ Tx.input_of_outpoint (Tx.outpoint_of published 0);
              Tx.input_of_outpoint (Tx.outpoint_of published 1) ]
          ~outputs:[ Scheme_intf.pay_to_pk ~value:t.cash side.main.Keys.pk ] ()
      in
      let wit i rev_sk delayed_pk =
        let script =
          output_script t
            ~rev_pk1:(Schnorr.public_key_of_secret rev_sk)
            ~rev_pk2:wt_rev.Keys.pk ~delayed_pk
        in
        [ Tx.Data "";
          Tx.Data (Sighash.sign rev_sk All body ~input_index:i);
          Tx.Data (Sighash.sign wt_rev.Keys.sk All body ~input_index:i);
          Tx.Data "\001"; Tx.Wscript script ]
      in
      Some
        (Tx.with_witnesses body [ wit 0 cheater_rev_sk cheater.delayed.Keys.pk;
              wit 1 victim_rev_sk side.delayed.Keys.pk ])
  | _ -> None

let commit_of (t : t) (who : [ `A | `B ]) : Tx.t =
  match who with `A -> t.commit_a | `B -> t.commit_b

let funding_outpoint (t : t) : Tx.outpoint = Tx.outpoint_of t.fund 0

let storage_bytes (t : t) ~(who : [ `A | `B ]) : int =
  let side = match who with `A -> t.a | `B -> t.b in
  let kp = 4 + Schnorr.public_key_size in
  let commit = match who with `A -> t.commit_a | `B -> t.commit_b in
  (3 * kp)
  + Tx.non_witness_size commit
  + Tx.witness_size commit
  + (List.length side.received_rev * 8)

let watchtower_bytes (t : t) : int = List.length t.wt_rev * (4 + 4 + 33)

(* ------------------------------------------------------------------ *)
(* SCHEME instance.                                                    *)

module Scheme : Scheme_intf.SCHEME = struct
  module I = Scheme_intf

  let name = "Cerberus"
  let has_watchtower = true

  type nonrec t = {
    env : I.env;
    ch : t;
    mutable revoked : Tx.t option;  (** A's first superseded commit *)
  }

  let open_channel (env : I.env) (cfg : I.config) =
    let ch =
      create ~rel_lock:cfg.rel_lock ~ledger:env.ledger ~rng:env.rng
        ~bal_a:cfg.bal_a ~bal_b:cfg.bal_b ()
    in
    Ok { env; ch; revoked = None }

  let update s ~bal_a ~bal_b =
    let old_a, _old_b = update s.ch ~bal_a ~bal_b in
    if s.revoked = None then s.revoked <- Some old_a;
    Ok ()

  let sn s = s.ch.sn
  let funding s = funding_outpoint s.ch
  let party_bytes s = storage_bytes s.ch ~who:`A
  let watchtower_bytes s = Some (watchtower_bytes s.ch)

  let ops s = s.ch.ops

  let known_pubkeys s =
    let side_keys sd =
      Keys.enc sd.main.Keys.pk
      :: Keys.enc sd.delayed.Keys.pk
      :: Keys.enc sd.rev_current.Keys.pk
      :: List.map
           (fun (_, sk) -> Keys.enc (Schnorr.public_key_of_secret sk))
           sd.received_rev
    in
    (Keys.enc s.ch.wt.Keys.pk
     :: List.map (fun (_, kp) -> Keys.enc kp.Keys.pk) s.ch.wt_rev)
    @ side_keys s.ch.a @ side_keys s.ch.b

  let collaborative_close s =
    let outputs =
      List.map2
        (fun (o : Tx.output) pk -> I.pay_to_pk ~value:o.Tx.value pk)
        (commit_of s.ch `A).Tx.outputs
        [ s.ch.a.main.Keys.pk; s.ch.b.main.Keys.pk ]
    in
    I.coop_close_2of2 s.env ~scheme:name ~outpoint:(funding s) ~outputs
      s.ch.a.main s.ch.b.main

  let dishonest_close s =
    match s.revoked with
    | None -> I.no_revoked_state ~scheme:name
    | Some old_commit ->
        I.dispute s.env ~scheme:name ~revoked_i:(I.revoked_index old_commit)
          ~published:old_commit
          ~punish:(fun () -> punish s.ch ~victim:`B ~published:old_commit)

  (* A publishes its latest commit and, after the CSV delay, sweeps
     its own to_local output via the delayed branch. *)
  let force_close s =
    let commit = commit_of s.ch `A in
    I.unilateral s.env ~scheme:name ~commit ~wait:s.ch.rel_lock
      ~sweep:(fun () ->
        I.sweep_delayed
          ~script:
            (output_script s.ch ~rev_pk1:s.ch.a.rev_current.Keys.pk
               ~rev_pk2:(List.assoc s.ch.sn s.ch.wt_rev).Keys.pk
               ~delayed_pk:s.ch.a.delayed.Keys.pk)
          ~sk:s.ch.a.delayed.Keys.sk ~to_pk:s.ch.a.main.Keys.pk commit)
end
