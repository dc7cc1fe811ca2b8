(** Executable Sleepy channel [Aumayr et al. 2021] (simplified).

    A bi-directional channel WITHOUT watchtowers: parties may go
    offline for prolonged periods because dispute windows are anchored
    to one absolute channel end-time T_end rather than to a relative
    delay after a (possibly unnoticed) closure. Each party's commit
    output gives the counter-party until T_end to present the
    revocation secret; the publisher can claim her own balance only
    after T_end. An honest party therefore needs to come online just
    once, shortly before T_end — and the channel's lifetime is
    necessarily limited (the Table 1 row: limited lifetime, no
    watchtower, O(n) party storage).

    Output script:
    [IF 2 <rev_pk> <other_pk> 2 CHECKMULTISIG            (revocation)
     ELSE <T_end> CLTV DROP <owner_pk> CHECKSIG ENDIF]   (after end-time) *)

module Tx = Daric_tx.Tx
module Sighash = Daric_tx.Sighash
module Script = Daric_script.Script
module Schnorr = Daric_crypto.Schnorr
module Ledger = Daric_chain.Ledger
module Keys = Daric_core.Keys

type side = {
  main : Keys.keypair;
  mutable rev_current : Keys.keypair;
  mutable received_rev : (int * Schnorr.secret_key) list;  (** O(n) *)
}

type t = {
  ledger : Ledger.t;
  rng : Daric_util.Rng.t;
  cash : int;
  t_end : int;  (** absolute channel end-time (ledger height class) *)
  fund : Tx.t;
  a : side;
  b : side;
  mutable sn : int;
  mutable commit_a : Tx.t;
  mutable commit_b : Tx.t;
  mutable ops : Scheme_intf.ops;
}

let output_script (t : t) ~(rev_pk : Schnorr.public_key)
    ~(other_pk : Schnorr.public_key) ~(owner_pk : Schnorr.public_key) :
    Script.t =
  [ Script.If; Small 2; Push (Keys.enc rev_pk); Push (Keys.enc other_pk);
    Small 2; Checkmultisig; Else; Num t.t_end; Cltv; Drop;
    Push (Keys.enc owner_pk); Checksig; Endif ]

let gen_commit (t : t) ~(owner : [ `A | `B ]) ~(bal_own : int)
    ~(bal_other : int) : Tx.t =
  let own, other = match owner with `A -> (t.a, t.b) | `B -> (t.b, t.a) in
  let out who_rev other_pk owner_pk bal =
    { Tx.value = bal;
      spk =
        Tx.P2wsh
          (Script.hash (output_script t ~rev_pk:who_rev ~other_pk ~owner_pk)) }
  in
  Tx.make ~inputs:[ Tx.input_of_outpoint ~sequence:t.sn (Tx.outpoint_of t.fund 0) ] ~outputs:[ (* the publisher's own balance: revocable by the other side,
           claimable by the owner only after T_end *)
        out own.rev_current.Keys.pk other.main.Keys.pk own.main.Keys.pk bal_own;
        (* the counter-party's balance: symmetric *)
        out other.rev_current.Keys.pk own.main.Keys.pk other.main.Keys.pk
          bal_other ] ()

let sign_commit (t : t) : Tx.t -> Tx.t =
  Scheme_intf.cosign_2of2 t.a.main t.b.main

let create ~(t_end : int) ~(ledger : Ledger.t) ~(rng : Daric_util.Rng.t)
    ~(bal_a : int) ~(bal_b : int) () : t =
  let mk_side () =
    { main = Keys.keygen rng; rev_current = Keys.keygen rng; received_rev = [] }
  in
  let a = mk_side () and b = mk_side () in
  let cash = bal_a + bal_b in
  let fund = Scheme_intf.fund_2of2 ledger ~value:cash a.main b.main in
  let empty = Tx.make ~inputs:[] ~outputs:[] () in
  let t =
    { ledger; rng = Daric_util.Rng.split rng; cash; t_end; fund; a; b; sn = 0;
      commit_a = empty; commit_b = empty; ops = Scheme_intf.ops_zero }
  in
  t.commit_a <- sign_commit t (gen_commit t ~owner:`A ~bal_own:bal_a ~bal_other:bal_b);
  t.commit_b <- sign_commit t (gen_commit t ~owner:`B ~bal_own:bal_b ~bal_other:bal_a);
  t

let update (t : t) ~(bal_a : int) ~(bal_b : int) : Tx.t * Tx.t =
  let old = (t.commit_a, t.commit_b) in
  let old_rev_a = t.a.rev_current and old_rev_b = t.b.rev_current in
  t.sn <- t.sn + 1;
  t.a.rev_current <- Keys.keygen t.rng;
  t.b.rev_current <- Keys.keygen t.rng;
  t.commit_a <- sign_commit t (gen_commit t ~owner:`A ~bal_own:bal_a ~bal_other:bal_b);
  t.commit_b <- sign_commit t (gen_commit t ~owner:`B ~bal_own:bal_b ~bal_other:bal_a);
  t.a.received_rev <- (t.sn - 1, old_rev_b.Keys.sk) :: t.a.received_rev;
  t.b.received_rev <- (t.sn - 1, old_rev_a.Keys.sk) :: t.b.received_rev;
  (* Table 3 (Sleepy row): 5 signs / 5 verifies per update; the model
     counts the commitment exchanges and the fast-finish handshake *)
  t.ops <- Scheme_intf.ops_add ~signs:5 ~verifies:5 t.ops;
  old

(** Punish a revoked commit: the sleepy victim, waking any time before
    T_end, claims the cheater's balance output with the revealed
    secret (no relative timer to race). *)
let punish (t : t) ~(victim : [ `A | `B ]) ~(published : Tx.t) : Tx.t option =
  let side = match victim with `A -> t.a | `B -> t.b in
  let cheater = match victim with `A -> t.b | `B -> t.a in
  let revoked = Scheme_intf.revoked_index published in
  match List.assoc_opt revoked side.received_rev with
  | None -> None
  | Some rev_sk ->
      let script =
        output_script t
          ~rev_pk:(Schnorr.public_key_of_secret rev_sk)
          ~other_pk:side.main.Keys.pk ~owner_pk:cheater.main.Keys.pk
      in
      let v = (List.nth published.Tx.outputs 0).Tx.value in
      let body =
        Tx.make ~inputs:[ Tx.input_of_outpoint (Tx.outpoint_of published 0) ]
          ~outputs:[ Scheme_intf.pay_to_pk ~value:v side.main.Keys.pk ] ()
      in
      let sig_rev = Sighash.sign rev_sk All body ~input_index:0 in
      let sig_own = Sighash.sign side.main.Keys.sk All body ~input_index:0 in
      Some
        (Tx.with_witnesses body [ [ Tx.Data ""; Tx.Data sig_rev; Tx.Data sig_own; Tx.Data "\001";
                Tx.Wscript script ] ])

(** The publisher sweeps her own balance — only valid once the
    spending transaction's nLockTime can reach T_end. For an old commit
    pass the revocation key that state used ([rev_pk] defaults to the
    current one). *)
let sweep_own ?(rev_pk : Schnorr.public_key option) (t : t)
    ~(who : [ `A | `B ]) ~(published : Tx.t) : Tx.t =
  let side = match who with `A -> t.a | `B -> t.b in
  let other = match who with `A -> t.b | `B -> t.a in
  let rev_pk =
    match rev_pk with Some pk -> pk | None -> side.rev_current.Keys.pk
  in
  Scheme_intf.sweep_delayed ~locktime:t.t_end
    ~script:
      (output_script t ~rev_pk ~other_pk:other.main.Keys.pk
         ~owner_pk:side.main.Keys.pk)
    ~sk:side.main.Keys.sk ~to_pk:side.main.Keys.pk published

let commit_of (t : t) (who : [ `A | `B ]) : Tx.t =
  match who with `A -> t.commit_a | `B -> t.commit_b

let funding_outpoint (t : t) : Tx.outpoint = Tx.outpoint_of t.fund 0

(** Remaining channel lifetime in rounds (Table 1: limited). *)
let remaining_lifetime (t : t) : int = t.t_end - Ledger.height t.ledger

let storage_bytes (t : t) ~(who : [ `A | `B ]) : int =
  let side = match who with `A -> t.a | `B -> t.b in
  let kp = 4 + Schnorr.public_key_size in
  let commit = commit_of t who in
  (2 * kp)
  + Tx.non_witness_size commit
  + Tx.witness_size commit
  + (List.length side.received_rev * 8)

(* ------------------------------------------------------------------ *)
(* SCHEME instance.                                                    *)

module Scheme : Scheme_intf.SCHEME = struct
  module I = Scheme_intf

  let name = "Sleepy"
  let has_watchtower = false

  type nonrec t = {
    env : I.env;
    ch : t;
    mutable revoked : Tx.t option;  (** A's first superseded commit *)
  }

  let open_channel (env : I.env) (cfg : I.config) =
    let ch =
      create ~t_end:cfg.t_end ~ledger:env.ledger ~rng:env.rng
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
  let watchtower_bytes _ = None

  let ops s = s.ch.ops

  let known_pubkeys s =
    let side_keys sd =
      Keys.enc sd.main.Keys.pk
      :: Keys.enc sd.rev_current.Keys.pk
      :: List.map
           (fun (_, sk) -> Keys.enc (Schnorr.public_key_of_secret sk))
           sd.received_rev
    in
    side_keys s.ch.a @ side_keys s.ch.b

  let collaborative_close s =
    let outputs =
      List.map2
        (fun (o : Tx.output) pk -> I.pay_to_pk ~value:o.Tx.value pk)
        (commit_of s.ch `A).Tx.outputs
        [ s.ch.a.main.Keys.pk; s.ch.b.main.Keys.pk ]
    in
    I.coop_close_2of2 s.env ~scheme:name ~outpoint:(funding s) ~outputs
      s.ch.a.main s.ch.b.main

  (* The sleepy victim wakes before T_end and claims the cheater's
     balance with the revealed revocation secret — no relative timer. *)
  let dishonest_close s =
    match s.revoked with
    | None -> I.no_revoked_state ~scheme:name
    | Some old_commit ->
        I.dispute s.env ~scheme:name ~revoked_i:(I.revoked_index old_commit)
          ~published:old_commit
          ~punish:(fun () -> punish s.ch ~victim:`B ~published:old_commit)

  (* The publisher can sweep her balance only after the absolute
     end-time T_end, so the sweep happens only when T_end is near
     enough to reach by ticking; otherwise the commit publication
     itself resolves the channel (the defining Sleepy trade-off). The
     wait is counted from the round the commit confirms in, one round
     from now. *)
  let force_close s =
    let commit = commit_of s.ch `A in
    let wait = remaining_lifetime s.ch - 1 in
    if wait >= 0 && wait <= 64 then
      I.unilateral s.env ~scheme:name ~commit ~wait ~sweep:(fun () ->
          sweep_own s.ch ~who:`A ~published:commit)
    else
      let h0 = Ledger.height s.env.ledger in
      match I.post_confirmed s.env ~scheme:name ~stage:"force_close" commit with
      | Error e -> Error e
      | Ok () ->
          I.outcome s.env ~h0 ~resolved:(I.spent s.env (funding s))
            [ I.Latest_published ]
end
