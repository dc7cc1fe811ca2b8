(* Ledger functionality tests: the five validity checks of L(Δ,Σ),
   adversarial delays, timelock classes, and the economic mempool
   (fees, RBF, block capacity). *)

module Tx = Daric_tx.Tx
module Ledger = Daric_chain.Ledger
module Mempool = Daric_chain.Mempool
module Schnorr = Daric_crypto.Schnorr
module Sighash = Daric_tx.Sighash
module Rng = Daric_util.Rng
module Dpool = Daric_util.Dpool

let check_b = Alcotest.(check bool)
let check_i = Alcotest.(check int)

let keypair seed =
  let rng = Rng.create ~seed in
  Schnorr.keygen rng

let p2wpkh pk = Tx.P2wpkh (Daric_crypto.Hash.hash160 (Schnorr.encode_public_key pk))

(** Spend a P2WPKH utxo to a new P2WPKH output. *)
let spend_tx ~sk ~pk ~(from : Tx.outpoint) ~value ~to_pk ?(locktime = 0) () =
  let tx =
    Tx.make ~locktime
      ~inputs:[ Tx.input_of_outpoint from ]
      ~outputs:[ { Tx.value; spk = p2wpkh to_pk } ]
      ()
  in
  let sg = Sighash.sign sk All tx ~input_index:0 in
  Tx.with_witnesses tx [ [ Tx.Data sg; Tx.Data (Schnorr.encode_public_key pk) ] ]

let test_mint_and_spend () =
  let l = Ledger.create ~delta:2 () in
  let sk, pk = keypair 1 in
  let _, pk2 = keypair 2 in
  let op = Ledger.mint l ~value:100 ~spk:(p2wpkh pk) in
  check_b "minted utxo exists" true (Ledger.is_unspent l op);
  let tx = spend_tx ~sk ~pk ~from:op ~value:100 ~to_pk:pk2 () in
  Ledger.post l tx ~delay:0;
  ignore (Ledger.tick l);
  check_b "spent" false (Ledger.is_unspent l op);
  check_b "new utxo" true (Ledger.is_unspent l { Tx.txid = Tx.txid tx; vout = 0 });
  check_b "spender recorded" true (Ledger.spender_of l op <> None)

let test_adversarial_delay () =
  let l = Ledger.create ~delta:3 () in
  let sk, pk = keypair 1 in
  let _, pk2 = keypair 2 in
  let op = Ledger.mint l ~value:100 ~spk:(p2wpkh pk) in
  let tx = spend_tx ~sk ~pk ~from:op ~value:100 ~to_pk:pk2 () in
  Ledger.post l tx ~delay:3;
  ignore (Ledger.tick l);
  ignore (Ledger.tick l);
  check_b "not yet accepted" true (Ledger.is_unspent l op);
  ignore (Ledger.tick l);
  check_b "accepted at delta" false (Ledger.is_unspent l op);
  (* delay is clamped to delta *)
  let l2 = Ledger.create ~delta:1 () in
  let op2 = Ledger.mint l2 ~value:100 ~spk:(p2wpkh pk) in
  let tx2 = spend_tx ~sk ~pk ~from:op2 ~value:100 ~to_pk:pk2 () in
  Ledger.post l2 tx2 ~delay:100;
  ignore (Ledger.tick l2);
  check_b "clamped to delta=1" false (Ledger.is_unspent l2 op2)

let test_validity_checks () =
  let l = Ledger.create ~delta:1 () in
  let sk, pk = keypair 1 in
  let sk2, pk2 = keypair 2 in
  let op = Ledger.mint l ~value:100 ~spk:(p2wpkh pk) in
  (* value conservation *)
  let overspend = spend_tx ~sk ~pk ~from:op ~value:101 ~to_pk:pk2 () in
  check_b "overspend rejected" true
    (Ledger.validate l overspend = Error Ledger.Value_overspent);
  (* missing input *)
  let ghost = { Tx.txid = String.make 32 'x'; vout = 0 } in
  let missing = spend_tx ~sk ~pk ~from:ghost ~value:1 ~to_pk:pk2 () in
  (match Ledger.validate l missing with
  | Error (Ledger.Missing_input _) -> ()
  | _ -> Alcotest.fail "expected missing input");
  (* wrong key *)
  let stolen = spend_tx ~sk:sk2 ~pk:pk2 ~from:op ~value:100 ~to_pk:pk2 () in
  (match Ledger.validate l stolen with
  | Error (Ledger.Invalid_witness _) -> ()
  | _ -> Alcotest.fail "expected invalid witness");
  (* zero-value output *)
  let dust = spend_tx ~sk ~pk ~from:op ~value:0 ~to_pk:pk2 () in
  check_b "zero output rejected" true (Ledger.validate l dust = Error Ledger.Bad_output)

(* The tick validates each due transaction inline, in posting order.
   [bad] presents the wrong key for input 1, which fails before any
   signature check; [forged] presents the right key with another key's
   signature, which only the signature check catches. The good
   transaction is accepted and each bad one is rejected with the
   offending input's index, exactly as [validate] reports it. *)
let test_batched_validation () =
  let l = Ledger.create ~delta:1 () in
  let sk, pk = keypair 1 in
  let sk2, pk2 = keypair 2 in
  let mk_tx ~signers =
    let ops = List.map (fun _ -> Ledger.mint l ~value:100 ~spk:(p2wpkh pk)) signers in
    let tx =
      Tx.make ~inputs:(List.map Tx.input_of_outpoint ops) ~outputs:[ { Tx.value = 300; spk = p2wpkh pk2 } ] ()
    in
    let witnesses =
      List.mapi
        (fun i (sk_i, pk_i) ->
          let sg = Sighash.sign sk_i All tx ~input_index:i in
          [ Tx.Data sg; Tx.Data (Schnorr.encode_public_key pk_i) ])
        signers
    in
    Tx.with_witnesses tx witnesses
  in
  let good = mk_tx ~signers:[ (sk, pk); (sk, pk); (sk, pk) ] in
  (* one bad witness among good ones *)
  let bad = mk_tx ~signers:[ (sk, pk); (sk2, pk2); (sk, pk) ] in
  let forged = mk_tx ~signers:[ (sk, pk); (sk2, pk); (sk, pk) ] in
  let verdicts = List.map (Ledger.validate l) [ bad; forged ] in
  List.iter (fun tx -> Ledger.post l tx ~delay:0) [ good; bad; forged ];
  match Ledger.tick l with
  | [ Ledger.Accepted g;
      Ledger.Rejected (b, (Ledger.Invalid_witness (1, _) as reason));
      Ledger.Rejected (f, (Ledger.Invalid_witness (1, _) as reason')) ] ->
      check_b "the valid multi-input tx is accepted" true (g == good);
      check_b "the bad txs are the ones rejected" true (b == bad && f == forged);
      check_b "rejections agree with validate" true
        (verdicts = [ Error reason; Error reason' ])
  | _ -> Alcotest.fail "expected Accepted, then Invalid_witness at index 1 twice"

let test_locktime_classes () =
  let l = Ledger.create ~delta:1 () in
  let sk, pk = keypair 1 in
  let _, pk2 = keypair 2 in
  let op = Ledger.mint l ~value:100 ~spk:(p2wpkh pk) in
  (* height-class locktime in the future *)
  let future_h = spend_tx ~sk ~pk ~from:op ~value:100 ~to_pk:pk2 ~locktime:50 () in
  check_b "future height rejected" true
    (Ledger.validate l future_h = Error Ledger.Locktime_in_future);
  for _ = 1 to 50 do ignore (Ledger.tick l) done;
  check_b "height reached" true (Ledger.validate l future_h = Ok ());
  (* timestamp-class: genesis 600e6 + 50 rounds > 500e6 threshold *)
  let ts = spend_tx ~sk ~pk ~from:op ~value:100 ~to_pk:pk2 ~locktime:600_000_049 () in
  check_b "timestamp in past ok" true (Ledger.validate l ts = Ok ());
  let ts_future =
    spend_tx ~sk ~pk ~from:op ~value:100 ~to_pk:pk2 ~locktime:600_000_051 ()
  in
  check_b "timestamp in future rejected" true
    (Ledger.validate l ts_future = Error Ledger.Locktime_in_future)

let test_double_spend () =
  let l = Ledger.create ~delta:1 () in
  let sk, pk = keypair 1 in
  let _, pk2 = keypair 2 in
  let _, pk3 = keypair 3 in
  let op = Ledger.mint l ~value:100 ~spk:(p2wpkh pk) in
  let tx1 = spend_tx ~sk ~pk ~from:op ~value:100 ~to_pk:pk2 () in
  let tx2 = spend_tx ~sk ~pk ~from:op ~value:100 ~to_pk:pk3 () in
  Ledger.post l tx1 ~delay:0;
  Ledger.post l tx2 ~delay:0;
  let events = Ledger.tick l in
  let accepted =
    List.filter (function Ledger.Accepted _ -> true | _ -> false) events
  in
  let rejected =
    List.filter (function Ledger.Rejected _ -> true | _ -> false) events
  in
  check_i "exactly one accepted" 1 (List.length accepted);
  check_i "exactly one rejected" 1 (List.length rejected)

(* ---------------- economic mempool ---------------- *)

let mk_mempool ?block_vbytes () =
  let ledger = Ledger.create ~delta:0 () in
  Mempool.create ?block_vbytes ~ledger ()

let test_fee_and_minrelay () =
  let mp = mk_mempool () in
  let l = Mempool.ledger mp in
  let sk, pk = keypair 1 in
  let _, pk2 = keypair 2 in
  let op = Ledger.mint l ~value:100_000 ~spk:(p2wpkh pk) in
  (* zero fee -> below min relay *)
  let free = spend_tx ~sk ~pk ~from:op ~value:100_000 ~to_pk:pk2 () in
  check_b "free tx rejected" true
    (Mempool.submit mp free = Error Mempool.Feerate_below_minimum);
  (* pay 1 sat/vbyte *)
  let paid = spend_tx ~sk ~pk ~from:op ~value:99_000 ~to_pk:pk2 () in
  check_b "paid tx accepted" true (Mempool.submit mp paid = Ok ());
  let confirmed = Mempool.tick mp in
  check_i "confirmed in next block" 1 (List.length confirmed);
  check_i "fees collected" 1_000 (Mempool.total_fees_collected mp)

let test_rbf_rules () =
  let mp = mk_mempool () in
  let l = Mempool.ledger mp in
  let sk, pk = keypair 1 in
  let _, pk2 = keypair 2 in
  let _, pk3 = keypair 3 in
  let op = Ledger.mint l ~value:1_000_000 ~spk:(p2wpkh pk) in
  let tx_with_fee fee to_pk = spend_tx ~sk ~pk ~from:op ~value:(1_000_000 - fee) ~to_pk () in
  check_b "original accepted" true (Mempool.submit mp (tx_with_fee 100_000 pk2) = Ok ());
  (* conflicting tx with small fee increment: rejected by BIP-125 *)
  check_b "insufficient replacement rejected" true
    (Mempool.submit mp (tx_with_fee 100_001 pk3) = Error Mempool.Rbf_insufficient_fee);
  (* paying more than the old fee plus relay for its own size: accepted *)
  check_b "sufficient replacement accepted" true
    (Mempool.submit mp (tx_with_fee 101_000 pk3) = Ok ());
  check_i "pool holds one" 1 (Mempool.pool_size mp);
  let confirmed = Mempool.tick mp in
  (match confirmed with
  | [ tx ] ->
      check_b "the replacement confirmed" true
        (List.exists
           (fun (o : Tx.output) ->
             o.spk = p2wpkh pk3)
           tx.Tx.outputs)
  | _ -> Alcotest.fail "expected one confirmation")

let test_block_capacity () =
  let mp = mk_mempool ~block_vbytes:300 () in
  let l = Mempool.ledger mp in
  let sk, pk = keypair 1 in
  let _, pk2 = keypair 2 in
  (* many independent txs, each ~100+ vbytes; only ~2 fit per block *)
  let ops = List.init 6 (fun _ -> Ledger.mint l ~value:50_000 ~spk:(p2wpkh pk)) in
  List.iter
    (fun op ->
      match Mempool.submit mp (spend_tx ~sk ~pk ~from:op ~value:49_000 ~to_pk:pk2 ()) with
      | Ok () -> ()
      | Error e -> Alcotest.fail (Mempool.submit_error_to_string e))
    ops;
  let b1 = List.length (Mempool.tick mp) in
  check_b "capacity limits block" true (b1 < 6 && b1 >= 1);
  let total = ref b1 in
  for _ = 1 to 5 do
    total := !total + List.length (Mempool.tick mp)
  done;
  check_i "all eventually confirm" 6 !total

let test_higher_feerate_first () =
  let mp = mk_mempool ~block_vbytes:150 () in
  let l = Mempool.ledger mp in
  let sk, pk = keypair 1 in
  let _, pk2 = keypair 2 in
  let op_lo = Ledger.mint l ~value:50_000 ~spk:(p2wpkh pk) in
  let op_hi = Ledger.mint l ~value:50_000 ~spk:(p2wpkh pk) in
  let lo = spend_tx ~sk ~pk ~from:op_lo ~value:49_800 ~to_pk:pk2 () in
  let hi = spend_tx ~sk ~pk ~from:op_hi ~value:40_000 ~to_pk:pk2 () in
  check_b "lo in" true (Mempool.submit mp lo = Ok ());
  check_b "hi in" true (Mempool.submit mp hi = Ok ());
  (match Mempool.tick mp with
  | [ tx ] -> check_b "high feerate first" true (Tx.txid tx = Tx.txid hi)
  | _ -> Alcotest.fail "expected exactly one tx in the tight block");
  ignore (Mempool.tick mp)

(** Spend several P2WPKH utxos of one key to a new P2WPKH output. *)
let spend_many ~sk ~pk ~(from : Tx.outpoint list) ~value ~to_pk =
  let tx =
    Tx.make
      ~inputs:(List.map Tx.input_of_outpoint from)
      ~outputs:[ { Tx.value; spk = p2wpkh to_pk } ]
      ()
  in
  Tx.with_witnesses tx
    (List.mapi
       (fun i _ ->
         [ Tx.Data (Sighash.sign sk All tx ~input_index:i);
           Tx.Data (Schnorr.encode_public_key pk) ])
       from)

let test_admission_rejections () =
  let mp = mk_mempool () in
  let l = Mempool.ledger mp in
  let sk, pk = keypair 1 in
  let _, pk2 = keypair 2 in
  let op = Ledger.mint l ~value:100_000 ~spk:(p2wpkh pk) in
  (* 4 000 outputs of 31 bytes each: over the 100 000-vbyte cap *)
  let huge =
    Tx.make
      ~inputs:[ Tx.input_of_outpoint op ]
      ~outputs:(List.init 4_000 (fun _ -> { Tx.value = 1; spk = p2wpkh pk2 }))
      ()
  in
  check_b "oversized tx rejected" true (Mempool.submit mp huge = Error Mempool.Too_large);
  let ghost = { Tx.txid = String.make 32 'x'; vout = 0 } in
  check_b "unknown input rejected" true
    (Mempool.submit mp (spend_tx ~sk ~pk ~from:ghost ~value:1 ~to_pk:pk2 ())
    = Error (Mempool.Unknown_input ghost));
  check_b "negative fee rejected" true
    (Mempool.submit mp (spend_tx ~sk ~pk ~from:op ~value:100_001 ~to_pk:pk2 ())
    = Error Mempool.Negative_fee);
  check_i "nothing pooled" 0 (Mempool.pool_size mp)

(* BIP-125 against two pooled transactions: a replacement spending the
   inputs of both must pay more than their sum plus relay fee for its
   own size; outbidding each one alone is not enough. *)
let test_rbf_two_conflicts () =
  let mp = mk_mempool () in
  let l = Mempool.ledger mp in
  let sk, pk = keypair 1 in
  let _, pk2 = keypair 2 in
  let _, pk3 = keypair 3 in
  let op_a = Ledger.mint l ~value:100_000 ~spk:(p2wpkh pk) in
  let op_b = Ledger.mint l ~value:100_000 ~spk:(p2wpkh pk) in
  let old_fee = 10_000 in
  List.iter
    (fun op ->
      check_b "original accepted" true
        (Mempool.submit mp
           (spend_tx ~sk ~pk ~from:op ~value:(100_000 - old_fee) ~to_pk:pk2 ())
        = Ok ()))
    [ op_a; op_b ];
  let replacement fee =
    spend_many ~sk ~pk ~from:[ op_a; op_b ] ~value:(200_000 - fee) ~to_pk:pk3
  in
  let vb = Tx.vbytes (replacement 0) in
  let short = (2 * old_fee) + vb - 1 in
  check_b "outbids each conflict" true (short > old_fee);
  check_b "short of the sum plus relay fee: rejected" true
    (Mempool.submit mp (replacement short) = Error Mempool.Rbf_insufficient_fee);
  check_i "both originals still pooled" 2 (Mempool.pool_size mp);
  check_b "the sum plus relay fee: accepted" true
    (Mempool.submit mp (replacement (short + 1)) = Ok ());
  check_i "both originals evicted" 1 (Mempool.pool_size mp)

(* A replacement that conflicts with one pooled entry on two outpoints
   owes that entry's fee once, not once per shared outpoint. *)
let test_rbf_conflict_counted_once () =
  let mp = mk_mempool () in
  let l = Mempool.ledger mp in
  let sk, pk = keypair 1 in
  let _, pk2 = keypair 2 in
  let _, pk3 = keypair 3 in
  let ops = List.init 2 (fun _ -> Ledger.mint l ~value:100_000 ~spk:(p2wpkh pk)) in
  let old_fee = 10_000 in
  check_b "original accepted" true
    (Mempool.submit mp
       (spend_many ~sk ~pk ~from:ops ~value:(200_000 - old_fee) ~to_pk:pk2)
    = Ok ());
  let replacement fee =
    spend_many ~sk ~pk ~from:ops ~value:(200_000 - fee) ~to_pk:pk3
  in
  let fee = old_fee + Tx.vbytes (replacement 0) in
  check_b "one sat short: rejected" true
    (Mempool.submit mp (replacement (fee - 1)) = Error Mempool.Rbf_insufficient_fee);
  check_b "the entry's fee once plus relay fee: accepted" true
    (Mempool.submit mp (replacement fee) = Ok ());
  check_i "replaced in place" 1 (Mempool.pool_size mp)

(* A transaction listing one outpoint twice: were each input looked up
   alone, one 100-sat mint would fund a 200-sat output. *)
let spend_twice ~sk ~pk ~(from : Tx.outpoint) ~value ~to_pk =
  spend_many ~sk ~pk ~from:[ from; from ] ~value ~to_pk

let test_duplicate_input_validate () =
  let l = Ledger.create ~delta:1 () in
  let sk, pk = keypair 1 in
  let _, pk2 = keypair 2 in
  let op = Ledger.mint l ~value:100 ~spk:(p2wpkh pk) in
  check_b "double-counted input rejected" true
    (Ledger.validate l (spend_twice ~sk ~pk ~from:op ~value:200 ~to_pk:pk2)
    = Error (Ledger.Duplicate_input op));
  check_b "rejected even when the outputs fit one spend" true
    (Ledger.validate l (spend_twice ~sk ~pk ~from:op ~value:100 ~to_pk:pk2)
    = Error (Ledger.Duplicate_input op))

let test_duplicate_input_tick () =
  let l = Ledger.create ~delta:1 () in
  let sk, pk = keypair 1 in
  let _, pk2 = keypair 2 in
  let op = Ledger.mint l ~value:100 ~spk:(p2wpkh pk) in
  let tx = spend_twice ~sk ~pk ~from:op ~value:200 ~to_pk:pk2 in
  Ledger.post l tx ~delay:0;
  (match Ledger.tick l with
  | [ Ledger.Rejected (r, Ledger.Duplicate_input o) ] ->
      check_b "the duplicate-input tx is rejected" true (r == tx);
      check_b "naming the repeated outpoint" true (Tx.outpoint_equal o op)
  | _ -> Alcotest.fail "expected one Rejected (_, Duplicate_input _)");
  check_i "no value minted" 100 (Ledger.total_value l);
  check_b "the outpoint stays unspent" true (Ledger.is_unspent l op)

let test_duplicate_input_submit () =
  let mp = mk_mempool () in
  let l = Mempool.ledger mp in
  let sk, pk = keypair 1 in
  let _, pk2 = keypair 2 in
  let op = Ledger.mint l ~value:100_000 ~spk:(p2wpkh pk) in
  check_b "duplicate input refused at admission" true
    (Mempool.submit mp (spend_twice ~sk ~pk ~from:op ~value:150_000 ~to_pk:pk2)
    = Error (Mempool.Duplicate_input op));
  check_i "nothing pooled" 0 (Mempool.pool_size mp)

(* Counted twice, the repeated input would pay a fee that outbids the
   pooled spend of the same outpoint and evict it (BIP-125). *)
let test_duplicate_input_no_evict () =
  let mp = mk_mempool () in
  let l = Mempool.ledger mp in
  let sk, pk = keypair 1 in
  let _, pk2 = keypair 2 in
  let _, pk3 = keypair 3 in
  let op = Ledger.mint l ~value:100_000 ~spk:(p2wpkh pk) in
  let original = spend_tx ~sk ~pk ~from:op ~value:90_000 ~to_pk:pk2 () in
  check_b "original accepted" true (Mempool.submit mp original = Ok ());
  check_b "duplicate-input replacement refused" true
    (Mempool.submit mp (spend_twice ~sk ~pk ~from:op ~value:150_000 ~to_pk:pk3)
    = Error (Mempool.Duplicate_input op));
  check_i "the original stays pooled" 1 (Mempool.pool_size mp);
  match Mempool.tick mp with
  | [ tx ] -> check_b "the original confirms" true (tx == original)
  | _ -> Alcotest.fail "expected the original alone in the block"

(* A forged witness (the right public key, another key's signature)
   passes admission, which checks no signatures. Block assembly
   validates each transaction inline, so only its signature check
   rejects the forged tx: it is evicted and the honest ones confirm,
   at any domain count. *)
let test_forged_witness_evicted () =
  let run domains =
    Dpool.with_domains domains (fun () ->
        let mp = mk_mempool () in
        let l = Mempool.ledger mp in
        let sk, pk = keypair 1 in
        let _, pk2 = keypair 2 in
        let forger, _ = keypair 3 in
        let op_a = Ledger.mint l ~value:50_000 ~spk:(p2wpkh pk) in
        let op_f = Ledger.mint l ~value:50_000 ~spk:(p2wpkh pk) in
        let op_b = Ledger.mint l ~value:50_000 ~spk:(p2wpkh pk) in
        let honest_a = spend_tx ~sk ~pk ~from:op_a ~value:49_000 ~to_pk:pk2 () in
        let honest_b = spend_tx ~sk ~pk ~from:op_b ~value:48_500 ~to_pk:pk2 () in
        (* the highest fee rate: first in the assembly walk *)
        let forged = spend_tx ~sk:forger ~pk ~from:op_f ~value:40_000 ~to_pk:pk2 () in
        (match Ledger.validate l forged with
        | Error (Ledger.Invalid_witness (0, _)) -> ()
        | _ -> Alcotest.fail "forged witness must fail inline validation");
        List.iter
          (fun tx ->
            match Mempool.submit mp tx with
            | Ok () -> ()
            | Error e -> Alcotest.fail (Mempool.submit_error_to_string e))
          [ honest_a; forged; honest_b ];
        let confirmed = List.map Tx.txid (Mempool.tick mp) in
        check_b
          (Printf.sprintf "honest txs confirm (%d domains)" domains)
          true
          (List.sort compare confirmed
          = List.sort compare [ Tx.txid honest_a; Tx.txid honest_b ]);
        check_i "forged tx evicted" 0 (Mempool.pool_size mp);
        check_b "forged input unspent" true (Ledger.is_unspent l op_f);
        check_i "fees of the honest txs" 2_500 (Mempool.total_fees_collected mp);
        confirmed)
  in
  let one = run 1 in
  check_b "1 and 2 domains confirm the same block" true (one = run 2)

(* Checkpoint/rollback stress under nested checkpoint discipline,
   interleaved with aggressive log compaction (compact_depth = 2, so
   rolled-back entries include packed ones). A deterministic op script
   (mint + delayed spend + tick per step) lets every rolled-back state
   be compared against a freshly replayed ledger. *)

let test_checkpoint_stress () =
  let sk, pk = keypair 1 in
  let _, pk2 = keypair 2 in
  let step l i =
    let op = Ledger.mint l ~value:(1000 + i) ~spk:(p2wpkh pk) in
    let tx = spend_tx ~sk ~pk ~from:op ~value:(1000 + i) ~to_pk:pk2 () in
    Ledger.post l tx ~delay:(i mod 3);
    ignore (Ledger.tick l);
    op
  in
  (* Divergent branch: different values and delays, discarded later. *)
  let step_divergent l i =
    let op = Ledger.mint l ~value:(9000 + i) ~spk:(p2wpkh pk) in
    let tx = spend_tx ~sk ~pk ~from:op ~value:(9000 + i) ~to_pk:pk2 () in
    Ledger.post l tx ~delay:((i + 1) mod 3);
    ignore (Ledger.tick l);
    op
  in
  let mk () = Ledger.create ~delta:2 ~compact_depth:2 () in
  let fresh upto =
    let l = mk () in
    let ops = List.init upto (step l) in
    (l, ops)
  in
  let state l =
    ( Ledger.height l,
      List.map (fun (r, tx) -> (r, Tx.txid tx)) (Ledger.accepted l),
      List.sort compare
        (Ledger.fold_utxos l
           (fun op u acc ->
             (op.Tx.txid, op.Tx.vout, u.Ledger.output.Tx.value) :: acc)
           []),
      List.map
        (fun (due, txs) -> (due, List.map Tx.txid txs))
        (Ledger.pending_due l),
      Ledger.total_value l )
  in
  let agree label l ops (l', ops') =
    check_b (label ^ ": state equals fresh replay") true (state l = state l');
    check_b (label ^ ": same op stream") true (ops = ops');
    List.iter
      (fun op ->
        let via_index = Ledger.spender_of l op
        and via_scan = Daric_oracle.Ref_tower.spender_of_scan l op in
        check_b
          (label ^ ": spender index matches scan")
          true
          (Option.map Tx.txid via_index = Option.map Tx.txid via_scan))
      ops
  in
  let a, b, n = (3, 7, 12) in
  let l = mk () in
  let ops_a = List.init a (step l) in
  let c1 = Ledger.checkpoint l in
  let ops_b = ops_a @ List.init (b - a) (fun i -> step l (a + i)) in
  let c2 = Ledger.checkpoint l in
  let _ops_n = ops_b @ List.init (n - b) (fun i -> step l (b + i)) in
  check_b "compaction packed entries" true (Ledger.compacted_count l > 0);
  (* Roll back past compacted recordings to the inner checkpoint. *)
  Ledger.rollback l c2;
  agree "rollback to c2" l ops_b (fresh b);
  (* Diverge, then re-enter the same checkpoint (DFS backtracking). *)
  let _ = List.init (n - b) (fun i -> step_divergent l (b + i)) in
  Ledger.rollback l c2;
  agree "re-entered c2 after divergent branch" l ops_b (fresh b);
  (* Unwind the stack to the outer checkpoint and replay to the tip:
     the rebuilt chain must equal an uncheckpointed straight run. *)
  Ledger.rollback l c1;
  agree "rollback to c1" l ops_a (fresh a);
  let ops_n' = ops_a @ List.init (n - a) (fun i -> step l (a + i)) in
  agree "replayed to tip after rollback" l ops_n' (fresh n);
  (* Violating the stack discipline — rolling back to a checkpoint
     taken at a round above the ledger's — is refused. *)
  let l2 = mk () in
  let _ = List.init 2 (step l2) in
  let c_lo = Ledger.checkpoint l2 in
  let _ = List.init 2 (fun i -> step l2 (2 + i)) in
  let c_hi = Ledger.checkpoint l2 in
  Ledger.rollback l2 c_lo;
  check_b "rollback above the current round raises" true
    (match Ledger.rollback l2 c_hi with
    | () -> false
    | exception Invalid_argument _ -> true)

let prop_delay_never_negative =
  QCheck.Test.make ~name:"post accepts any delay value" ~count:100
    QCheck.(int_range (-5) 50)
    (fun d ->
      let l = Ledger.create ~delta:3 () in
      let sk, pk = keypair 1 in
      let op = Ledger.mint l ~value:10 ~spk:(p2wpkh pk) in
      let tx = spend_tx ~sk ~pk ~from:op ~value:10 ~to_pk:pk () in
      Ledger.post l tx ~delay:d;
      for _ = 1 to 4 do ignore (Ledger.tick l) done;
      (* whatever the requested delay, the tx lands within delta *)
      not (Ledger.is_unspent l op))

(* Safety under fuzzing: random conflicting submissions and block
   production never confirm a double spend, and ledger value never
   increases. *)
let prop_no_double_spend =
  QCheck.Test.make ~name:"mempool never confirms double spends" ~count:50
    QCheck.(pair small_nat (int_bound 1000))
    (fun (n_txs, seed) ->
      let n_txs = 2 + (n_txs mod 12) in
      let rng = Rng.create ~seed:(seed + 1) in
      let mp = mk_mempool ~block_vbytes:400 () in
      let l = Mempool.ledger mp in
      let sk, pk = keypair 1 in
      let _, pk2 = keypair 2 in
      (* a few UTXOs, many conflicting spends of them *)
      let ops = Array.init 3 (fun _ -> Ledger.mint l ~value:100_000 ~spk:(p2wpkh pk)) in
      let minted = Ledger.total_value l in
      for k = 1 to n_txs do
        let op = ops.(Rng.int rng 3) in
        let fee = 500 + Rng.int rng 50_000 in
        let tx = spend_tx ~sk ~pk ~from:op ~value:(100_000 - fee) ~to_pk:pk2 () in
        ignore (Mempool.submit mp tx);
        if k mod 3 = 0 then ignore (Mempool.tick mp)
      done;
      for _ = 1 to 6 do
        ignore (Mempool.tick mp)
      done;
      (* each original outpoint spent at most once, value only shrank
         (fees), never grew *)
      Array.for_all
        (fun op ->
          match Ledger.spender_of l op with
          | None -> true
          | Some _ -> not (Ledger.is_unspent l op))
        ops
      && Ledger.total_value l <= minted)

let () =
  Alcotest.run "daric-ledger"
    [ ( "uc-ledger",
        [ Alcotest.test_case "mint and spend" `Quick test_mint_and_spend;
          Alcotest.test_case "adversarial delay" `Quick test_adversarial_delay;
          Alcotest.test_case "validity checks" `Quick test_validity_checks;
          Alcotest.test_case "batched validation" `Quick test_batched_validation;
          Alcotest.test_case "locktime classes" `Quick test_locktime_classes;
          Alcotest.test_case "double spend" `Quick test_double_spend;
          Alcotest.test_case "checkpoint stress" `Quick test_checkpoint_stress;
          QCheck_alcotest.to_alcotest prop_delay_never_negative;
          Alcotest.test_case "duplicate input: validate" `Quick
            test_duplicate_input_validate;
          Alcotest.test_case "duplicate input: tick" `Quick
            test_duplicate_input_tick ] );
      ( "mempool",
        [ Alcotest.test_case "fees and min relay" `Quick test_fee_and_minrelay;
          Alcotest.test_case "rbf rules" `Quick test_rbf_rules;
          Alcotest.test_case "admission rejections" `Quick
            test_admission_rejections;
          Alcotest.test_case "rbf two conflicts" `Quick test_rbf_two_conflicts;
          Alcotest.test_case "rbf conflict counted once" `Quick
            test_rbf_conflict_counted_once;
          Alcotest.test_case "block capacity" `Quick test_block_capacity;
          Alcotest.test_case "feerate priority" `Quick test_higher_feerate_first;
          Alcotest.test_case "forged witness evicted" `Quick
            test_forged_witness_evicted;
          QCheck_alcotest.to_alcotest prop_no_double_spend;
          Alcotest.test_case "duplicate input refused" `Quick
            test_duplicate_input_submit;
          Alcotest.test_case "duplicate input does not evict its conflict"
            `Quick test_duplicate_input_no_evict ] ) ]
