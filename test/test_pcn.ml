(* PCN tests: HTLC script semantics, multi-hop payments across Daric
   channels, and the Section 6.1 delay attack (eltoo pinned, Daric
   immune). *)

module Tx = Daric_tx.Tx
module Ledger = Daric_chain.Ledger
module Htlc = Daric_pcn.Htlc
module Multihop = Daric_pcn.Multihop
module Attack = Daric_pcn.Attack
module Party = Daric_core.Party
module Driver = Daric_core.Driver
module Keys = Daric_core.Keys
module Rng = Daric_util.Rng

let check_b = Alcotest.(check bool)
let check_i = Alcotest.(check int)

(* ---------------- HTLC scripts ---------------- *)

let htlc_setup () =
  let l = Ledger.create ~delta:1 () in
  let rng = Rng.create ~seed:31 in
  let payee = Keys.keygen rng and payer = Keys.keygen rng in
  let preimage = Rng.bytes rng 32 in
  let h =
    Htlc.of_preimage ~preimage ~amount:500 ~payee_pk:payee.Keys.pk
      ~payer_pk:payer.Keys.pk ~timeout:4
  in
  let op = Ledger.mint l ~value:500 ~spk:(Htlc.output h).Tx.spk in
  (l, payee, payer, preimage, h, op)

let test_htlc_redeem () =
  let l, payee, _, preimage, h, op = htlc_setup () in
  let tx = Htlc.redeem h ~payee_sk:payee.Keys.sk ~preimage ~htlc_outpoint:op in
  check_b "redeem valid immediately" true (Ledger.validate l tx = Ok ());
  (* wrong preimage fails *)
  let bad = Htlc.redeem h ~payee_sk:payee.Keys.sk ~preimage:"nope" ~htlc_outpoint:op in
  check_b "wrong preimage rejected" true (Ledger.validate l bad <> Ok ())

let test_htlc_claimback () =
  let l, _, payer, _, h, op = htlc_setup () in
  let tx = Htlc.claimback h ~payer_sk:payer.Keys.sk ~htlc_outpoint:op in
  check_b "claimback blocked before timeout" true (Ledger.validate l tx <> Ok ());
  for _ = 1 to h.Htlc.timeout do
    ignore (Ledger.tick l)
  done;
  check_b "claimback valid after timeout" true (Ledger.validate l tx = Ok ())

let test_htlc_payee_key_required () =
  let l, _, payer, preimage, h, op = htlc_setup () in
  (* the payer cannot redeem even with the preimage *)
  let tx = Htlc.redeem h ~payee_sk:payer.Keys.sk ~preimage ~htlc_outpoint:op in
  check_b "payer cannot use redeem path" true (Ledger.validate l tx <> Ok ())

let test_htlc_sizes () =
  (* the Appendix-H.2 101-byte witness script *)
  let rng = Rng.create ~seed:32 in
  let k = Keys.keygen rng in
  let h =
    Htlc.of_preimage ~preimage:"x" ~amount:1 ~payee_pk:k.Keys.pk
      ~payer_pk:k.Keys.pk ~timeout:144
  in
  check_i "101-byte HTLC script" 101 (Daric_script.Script.size (Htlc.script h));
  let tx = Htlc.redeem h ~payee_sk:k.Keys.sk ~preimage:(String.make 32 'p') ~htlc_outpoint:{ Tx.txid = String.make 32 'o'; vout = 0 } in
  (* Redeem' = 212 witness bytes, 82 non-witness (Appendix H.2) *)
  check_i "redeem witness bytes" 212 (Tx.witness_size tx);
  check_i "redeem non-witness bytes" 82 (Tx.non_witness_size tx);
  let cb = Htlc.claimback h ~payer_sk:k.Keys.sk ~htlc_outpoint:{ Tx.txid = String.make 32 'o'; vout = 0 } in
  check_i "claimback witness bytes" 180 (Tx.witness_size cb);
  check_i "claimback non-witness bytes" 82 (Tx.non_witness_size cb)

(* ---------------- multi-hop over Daric ---------------- *)

let mk_network n_hops =
  let d = Driver.create ~delta:1 ~seed:51 () in
  let parties =
    List.init (n_hops + 1) (fun i ->
        let p = Party.create ~pid:(Fmt.str "p%d" i) ~seed:(60 + i) () in
        Driver.add_party d p;
        p)
  in
  let route =
    List.init n_hops (fun i ->
        let payer = List.nth parties i and payee = List.nth parties (i + 1) in
        let id = Fmt.str "hop%d" i in
        Driver.open_channel d ~id ~alice:payer ~bob:payee ~bal_a:50_000
          ~bal_b:50_000 ();
        if not (Driver.run_until_operational d ~id ~alice:payer ~bob:payee) then
          failwith "hop failed to open";
        { Multihop.channel_id = id; payer; payee })
  in
  (d, parties, route)

let test_multihop_payment () =
  let d, _, route = mk_network 3 in
  let outcome =
    Multihop.pay d ~route ~amount:10_000 ~preimage:"secret-payment-1" ~timeout:20
  in
  check_b "payment delivered" true outcome.Multihop.delivered;
  check_i "all hops locked" 3 outcome.Multihop.hops_locked;
  check_i "all hops settled" 3 outcome.Multihop.hops_settled;
  (* balances moved along the route: sender side decreased *)
  List.iteri
    (fun i hop ->
      let c = Party.chan_exn hop.Multihop.payer hop.Multihop.channel_id in
      let vals = List.map (fun (o : Tx.output) -> o.Tx.value) c.Party.st in
      check_b (Fmt.str "hop %d settled 40k/60k" i) true (vals = [ 40_000; 60_000 ]))
    route

let test_multihop_htlc_on_chain_enforcement () =
  (* lock a payment, then force the channel on chain mid-flight: the
     split transaction carries the HTLC output and the payee can redeem
     it with the preimage *)
  let d, _, route = mk_network 1 in
  let hop = List.hd route in
  let preimage = "secret-payment-2" in
  let digest = Daric_crypto.Hash.hash160 preimage in
  let theta = Multihop.locked_state hop ~amount:10_000 ~digest ~timeout:20 in
  check_b "lock update" true
    (Driver.update_channel d ~id:hop.Multihop.channel_id
       ~initiator:hop.Multihop.payer ~responder:hop.Multihop.payee ~theta);
  (* the payee force-closes *)
  Driver.corrupt d "p0";
  Party.request_close hop.Multihop.payee (Driver.ctx d "p1")
    ~id:hop.Multihop.channel_id;
  Driver.run d 20;
  check_b "payee closed on chain" true
    (Driver.saw_event hop.Multihop.payee (function
      | Party.Closed _ -> true
      | _ -> false));
  (* find the split on chain and redeem its HTLC output *)
  let c = Party.chan_exn hop.Multihop.payee hop.Multihop.channel_id in
  let fund_op = Tx.outpoint_of (Option.get c.Party.fund) 0 in
  let l = Driver.ledger d in
  let commit = Option.get (Ledger.spender_of l fund_op) in
  let split = Option.get (Ledger.spender_of l (Tx.outpoint_of commit 0)) in
  check_i "split has 3 outputs (2 balances + HTLC)" 3
    (List.length split.Tx.outputs);
  let pk_a, pk_b = Party.main_pks c in
  let payee_is_a = c.Party.cfg.role = Keys.Alice in
  let payee_pk = if payee_is_a then pk_a else pk_b in
  let payer_pk = if payee_is_a then pk_b else pk_a in
  let h =
    Htlc.of_preimage ~preimage ~amount:10_000 ~payee_pk ~payer_pk ~timeout:20
  in
  let payee_sk = c.Party.keys.Keys.main.Keys.sk in
  let redeem =
    Htlc.redeem h ~payee_sk ~preimage ~htlc_outpoint:(Tx.outpoint_of split 2)
  in
  check_b "HTLC redeemable on chain" true (Ledger.validate l redeem = Ok ())

let hop_values (hop : Multihop.hop) =
  let c = Party.chan_exn hop.Multihop.payer hop.Multihop.channel_id in
  List.map (fun (o : Tx.output) -> o.Tx.value) c.Party.st

let test_multihop_successive_payments () =
  let d, _, route = mk_network 2 in
  let pay k =
    Multihop.pay d ~route ~amount:10_000 ~preimage:(Fmt.str "inv-%d" k)
      ~timeout:20
  in
  let r1 = pay 1 in
  let r2 = pay 2 in
  check_b "both delivered" true (r1.Multihop.delivered && r2.Multihop.delivered);
  List.iteri
    (fun i hop ->
      check_b (Fmt.str "hop %d moved 20k in total" i) true
        (hop_values hop = [ 30_000; 70_000 ]))
    route

let test_multihop_offline_hop () =
  (* p2 is offline: the second hop cannot lock, so nothing settles *)
  let d, _, route = mk_network 3 in
  Driver.corrupt d "p2";
  let outcome =
    Multihop.pay d ~route ~amount:10_000 ~preimage:"stuck" ~timeout:20
  in
  check_b "not delivered" false outcome.Multihop.delivered;
  check_i "only the first hop locked" 1 outcome.Multihop.hops_locked;
  check_i "nothing settled" 0 outcome.Multihop.hops_settled;
  check_b "first hop holds the HTLC" true
    (hop_values (List.hd route) = [ 40_000; 50_000; 10_000 ])

let test_multihop_payer_is_bob () =
  (* the payer is the channel's Bob: the HTLC comes out of the second
     balance and settles into the first *)
  let d = Driver.create ~delta:1 ~seed:52 () in
  let payee = Party.create ~pid:"q0" ~seed:70 () in
  let payer = Party.create ~pid:"q1" ~seed:71 () in
  Driver.add_party d payee;
  Driver.add_party d payer;
  Driver.open_channel d ~id:"rev" ~alice:payee ~bob:payer ~bal_a:50_000
    ~bal_b:50_000 ();
  check_b "opened" true
    (Driver.run_until_operational d ~id:"rev" ~alice:payee ~bob:payer);
  let hop = { Multihop.channel_id = "rev"; payer; payee } in
  check_b "locked state debits Bob" true
    (List.map
       (fun (o : Tx.output) -> o.Tx.value)
       (Multihop.locked_state hop ~amount:10_000 ~digest:"d" ~timeout:20)
    = [ 50_000; 40_000; 10_000 ]);
  let outcome =
    Multihop.pay d ~route:[ hop ] ~amount:10_000 ~preimage:"to-alice"
      ~timeout:20
  in
  check_b "delivered" true outcome.Multihop.delivered;
  check_b "Alice credited" true (hop_values hop = [ 60_000; 40_000 ])

(* ---------------- the Section 6.1 attack ---------------- *)

let test_attack_analytics () =
  check_i "~715 channels per delay tx" 716
    (Attack.Analytic.max_channels_per_delay_tx ());
  check_i "144 delay txs over 3 days" 144
    (Attack.Analytic.delay_txs_before_expiry ());
  check_b "attack profitable against eltoo at paper scale" true
    (Attack.Analytic.profitable ())

let test_attack_pins_eltoo () =
  let cfg =
    { Attack.default_config with n_channels = 5; timelock_blocks = 8 }
  in
  let r = Attack.run_eltoo cfg in
  check_i "one delay tx per block" 8 r.Attack.delay_txs_confirmed;
  check_i "no victim escapes before expiry" 0 r.Attack.victims_escaped_in_time;
  check_b "victim overrides rejected by BIP-125" true
    (r.Attack.victim_overrides_rejected >= 5);
  check_i "fees = blocks * A" (8 * cfg.htlc_value) r.Attack.adversary_fees_paid

let test_attack_fails_on_daric () =
  let cfg = { Attack.default_config with n_channels = 3 } in
  let r = Attack.run_daric cfg in
  check_i "all cheats punished" r.Attack.old_commits_posted
    r.Attack.punished_within_window;
  check_i "no HTLC stolen" 0 r.Attack.htlcs_claimed;
  check_b "adversary loses capacity" true (r.Attack.adversary_capacity_lost > 0)

(* Measured vs analytic (Table 3, m > 0): build the full Daric
   non-collaborative closure with m HTLC outputs — commit, split,
   m/2 Redeem' and m/2 Claimback' transactions — and compare total
   witness/non-witness bytes against Appendix H.3's closed form:
   535+196m witness, 207+125m non-witness (weight 1363 + 696m). *)
let test_daric_noncollab_weight_with_htlcs () =
  List.iter
    (fun m ->
      let rng = Rng.create ~seed:(500 + m) in
      let keys_a = Keys.generate rng and keys_b = Keys.generate rng in
      let pub_a = Keys.pub keys_a and pub_b = Keys.pub keys_b in
      let cash = 1_000_000 in
      let fund =
        Daric_core.Txs.gen_fund
          ~tid_a:{ Tx.txid = String.make 32 'a'; vout = 0 }
          ~tid_b:{ Tx.txid = String.make 32 'b'; vout = 0 }
          ~cash ~pk_a:pub_a.Keys.main_pk ~pk_b:pub_b.Keys.main_pk
      in
      let cm_a, _ =
        Daric_core.Txs.gen_commit ~funding:(Tx.outpoint_of fund 0) ~value:cash
          ~keys_a:pub_a ~keys_b:pub_b ~s0:500_000_000 ~i:7 ~rel_lock:144
      in
      let commit =
        let msg = Daric_core.Txs.commit_message cm_a in
        Daric_core.Txs.complete_commit cm_a
          ~sig_a:(Daric_tx.Sighash.sign_message keys_a.Keys.main.Keys.sk All msg)
          ~sig_b:(Daric_tx.Sighash.sign_message keys_b.Keys.main.Keys.sk All msg)
          ~pk_a:pub_a.Keys.main_pk ~pk_b:pub_b.Keys.main_pk
      in
      (* split with two balance outputs + m HTLC outputs *)
      let htlcs =
        List.init m (fun i ->
            Htlc.of_preimage ~preimage:(Fmt.str "%032d" i) ~amount:1_000
              ~payee_pk:pub_b.Keys.main_pk ~payer_pk:pub_a.Keys.main_pk
              ~timeout:144)
      in
      let theta =
        Daric_core.Txs.balance_state ~pk_a:pub_a.Keys.main_pk
          ~pk_b:pub_b.Keys.main_pk
          ~bal_a:((cash / 2) - (1_000 * m))
          ~bal_b:(cash / 2)
        @ List.map Htlc.output htlcs
      in
      let split_body = Daric_core.Txs.gen_split ~theta ~s0:500_000_000 ~i:7 in
      let msg = Daric_core.Txs.split_message split_body in
      let script =
        Daric_core.Txs.commit_script_of ~role:Keys.Alice ~keys_a:pub_a
          ~keys_b:pub_b ~s0:500_000_000 ~i:7 ~rel_lock:144
      in
      let split =
        Daric_core.Txs.complete_split split_body
          ~commit_outpoint:(Tx.outpoint_of commit 0) ~commit_script:script
          ~sig_a:(Daric_tx.Sighash.sign_message keys_a.Keys.sp.Keys.sk Anyprevout msg)
          ~sig_b:(Daric_tx.Sighash.sign_message keys_b.Keys.sp.Keys.sk Anyprevout msg)
      in
      (* half redeemed by the payee, half claimed back by the payer *)
      let claims =
        List.mapi
          (fun i h ->
            let op = Tx.outpoint_of split (2 + i) in
            if i mod 2 = 0 then
              Htlc.redeem h ~payee_sk:keys_b.Keys.main.Keys.sk
                ~preimage:(Fmt.str "%032d" i) ~htlc_outpoint:op
            else Htlc.claimback h ~payer_sk:keys_a.Keys.main.Keys.sk ~htlc_outpoint:op)
          htlcs
      in
      let all_txs = commit :: split :: claims in
      let wit = List.fold_left (fun a t -> a + Tx.witness_size t) 0 all_txs in
      let nonwit = List.fold_left (fun a t -> a + Tx.non_witness_size t) 0 all_txs in
      check_i (Fmt.str "witness bytes at m=%d" m) (535 + (196 * m)) wit;
      check_i (Fmt.str "non-witness bytes at m=%d" m) (207 + (125 * m)) nonwit;
      check_i (Fmt.str "weight at m=%d" m) (1363 + (696 * m))
        ((4 * nonwit) + wit))
    [ 0; 2; 4; 10 ]

let () =
  Alcotest.run "daric-pcn"
    [ ( "htlc",
        [ Alcotest.test_case "redeem" `Quick test_htlc_redeem;
          Alcotest.test_case "claimback" `Quick test_htlc_claimback;
          Alcotest.test_case "payee key required" `Quick
            test_htlc_payee_key_required;
          Alcotest.test_case "appendix-H sizes" `Quick test_htlc_sizes;
          Alcotest.test_case "non-collab closure weight, m HTLCs" `Quick
            test_daric_noncollab_weight_with_htlcs ] );
      ( "multihop",
        [ Alcotest.test_case "3-hop payment" `Quick test_multihop_payment;
          Alcotest.test_case "on-chain HTLC enforcement" `Quick
            test_multihop_htlc_on_chain_enforcement;
          Alcotest.test_case "successive payments" `Quick
            test_multihop_successive_payments;
          Alcotest.test_case "offline hop" `Quick test_multihop_offline_hop;
          Alcotest.test_case "payer is Bob" `Quick test_multihop_payer_is_bob ] );
      ( "attack",
        [ Alcotest.test_case "analytic numbers" `Quick test_attack_analytics;
          Alcotest.test_case "eltoo pinned" `Quick test_attack_pins_eltoo;
          Alcotest.test_case "daric immune" `Quick test_attack_fails_on_daric ] ) ]
