(* Differential tests for the indexed chain state and the ledger tick.

   A random multi-channel transaction trace (valid spends, double
   spends, wrong keys, forged signatures, overspends, re-posted txids,
   inputs listed twice, adversarial delays) is replayed through
   - the indexed ledger (its bucketed pending queue and inline
     per-transaction tick) under 1, 2 and 4 worker-pool domains, which
     the tick does not use, so the three runs must agree,
   - a naive reference executor reproducing the seed's pending
     semantics (a flat (due, tx) list, inline per-input validation,
     posting order),
   and all four accept/reject event streams must be byte-identical,
   with the ledger's total value never above the minted total.
   On the final chain, every indexed read (spender_of,
   recorded_round_of, accepted_count, the spent log) is checked
   against its linear-scan oracle. The watchtower's cursor monitor is
   diffed against the scanning reference tower (test/oracle) on a real
   multi-channel fraud scenario. *)

module Tx = Daric_tx.Tx
module Ledger = Daric_chain.Ledger
module Schnorr = Daric_crypto.Schnorr
module Sighash = Daric_tx.Sighash
module Rng = Daric_util.Rng
module Dpool = Daric_util.Dpool
module Vec = Daric_util.Vec
module Watchtower = Daric_core.Watchtower
module Ref_tower = Daric_oracle.Ref_tower
module I = Daric_schemes.Scheme_intf
module DS = Daric_schemes.Daric_scheme

let check_b = Alcotest.(check bool)
let check_i = Alcotest.(check int)
let check_sl = Alcotest.(check (list string))

let p2wpkh pk = Tx.P2wpkh (Daric_crypto.Hash.hash160 (Schnorr.encode_public_key pk))

(* ---------------- random trace generation ---------------- *)

type trace_post = { at_round : int; tx : Tx.t; delay : int }

(* Build a trace statically: candidate outpoints start from the mints
   and grow with each generated transaction's outputs, whether or not
   that transaction would be accepted — so the trace contains valid
   spends, double spends, spends of never-recorded outputs (missing
   inputs), wrong-key witnesses, forged signatures, overspends and
   re-posts of earlier transactions (duplicate txids, within one round
   or across rounds). *)
let gen_trace ~seed ~rounds ~keys:nkeys ~mints =
  let rng = Rng.create ~seed in
  let keys = Array.init nkeys (fun i -> Schnorr.keygen (Rng.create ~seed:(seed + 100 + i))) in
  let mint_specs =
    List.init mints (fun i ->
        let k = i mod nkeys in
        (1_000 + Rng.int rng 9_000, k))
  in
  (* candidates: (outpoint, value, key index that can spend it) *)
  let candidates = ref [] in
  let n_candidates = ref 0 in
  let add_candidate c = candidates := c :: !candidates; incr n_candidates in
  (* Mint outpoints are deterministic per fresh ledger (the synthetic
     coinbase counter starts at 1), so minting on a scratch ledger
     yields the same outpoints every replay will see. *)
  let scratch = Ledger.create ~delta:0 () in
  List.iter
    (fun (value, k) ->
      add_candidate (Ledger.mint scratch ~value ~spk:(p2wpkh (snd keys.(k))), value, k))
    mint_specs;
  let pick_candidate () =
    List.nth !candidates (Rng.int rng !n_candidates)
  in
  let posts = ref [] in
  for r = 0 to rounds - 1 do
    let n_txs = 1 + Rng.int rng 4 in
    for _ = 1 to n_txs do
      if !posts <> [] && Rng.int rng 8 = 0 then begin
        (* re-post the previous post: whichever copy lands first may
           be accepted, every later one is a duplicate txid; reusing
           the delay often lands both in the same round *)
        let p = List.hd !posts in
        let delay = if Rng.int rng 2 = 0 then p.delay else Rng.int rng 4 in
        posts := { at_round = r; tx = p.tx; delay } :: !posts
      end
      else
      let op, value, k = pick_candidate () in
      let kind = Rng.int rng 10 in
      (* kind 0 signs with the wrong key; half the time its witness
         names the right public key, a forged signature that only the
         signature check catches *)
      let sk, pk =
        if kind = 0 then
          let wrong_sk, wrong_pk = keys.((k + 1) mod nkeys) in
          (wrong_sk, if Rng.int rng 2 = 0 then wrong_pk else snd keys.(k))
        else keys.(k)
      in
      (* sometimes spend a second candidate in the same transaction —
         a multi-input tx whose inputs may be contested by, or created
         by, other transactions due earlier in the same round. A quarter
         of them list the first outpoint twice, and their outputs claim
         its value twice *)
      let extra =
        if kind >= 8 then
          Some (if Rng.int rng 4 = 0 then (op, value, k) else pick_candidate ())
        else None
      in
      let out_value = if kind = 1 then value + 1 (* overspend *) else value in
      let out_value =
        match extra with Some (_, v2, _) -> out_value + v2 | None -> out_value
      in
      let k_to = Rng.int rng nkeys in
      let split = out_value > 1 && Rng.int rng 2 = 0 in
      let outputs =
        if split then
          let v1 = 1 + Rng.int rng (out_value - 1) in
          [ { Tx.value = v1; spk = p2wpkh (snd keys.(k_to)) };
            { Tx.value = out_value - v1;
              spk = p2wpkh (snd keys.((k_to + 1) mod nkeys)) } ]
        else [ { Tx.value = out_value; spk = p2wpkh (snd keys.(k_to)) } ]
      in
      let inputs =
        Tx.input_of_outpoint op
        :: (match extra with
           | Some (op2, _, _) -> [ Tx.input_of_outpoint op2 ]
           | None -> [])
      in
      let body = Tx.make ~inputs ~outputs () in
      let wit0 =
        let sg = Sighash.sign sk All body ~input_index:0 in
        [ Tx.Data sg; Tx.Data (Schnorr.encode_public_key pk) ]
      in
      let witnesses =
        match extra with
        | None -> [ wit0 ]
        | Some (_, _, k2) ->
            let sk2, pk2 = keys.(k2) in
            let sg2 = Sighash.sign sk2 All body ~input_index:1 in
            [ wit0; [ Tx.Data sg2; Tx.Data (Schnorr.encode_public_key pk2) ] ]
      in
      let tx = Tx.with_witnesses body witnesses in
      List.iteri
        (fun vout (o : Tx.output) ->
          add_candidate (Tx.outpoint_of tx vout, o.value, k_to))
        outputs;
      posts := { at_round = r; tx; delay = Rng.int rng 4 } :: !posts
    done
  done;
  (mint_specs, keys, List.rev !posts, List.rev !candidates)

let show_event = function
  | Ledger.Accepted tx -> Printf.sprintf "A:%s" (Daric_util.Hex.short (Tx.txid tx))
  | Ledger.Rejected (tx, r) ->
      Printf.sprintf "R:%s:%s"
        (Daric_util.Hex.short (Tx.txid tx))
        (Ledger.reject_to_string r)

(* Replay the trace through the real ledger; returns the per-round
   event stream and the final ledger. [after_tick] sees the ledger
   after every round. *)
let replay_indexed ?(after_tick = ignore) ~delta (mint_specs, keys, posts, _) =
  let l = Ledger.create ~delta () in
  List.iter
    (fun (value, k) -> ignore (Ledger.mint l ~value ~spk:(p2wpkh (snd keys.(k)))))
    mint_specs;
  let stream = ref [] in
  let rounds = 1 + List.fold_left (fun m p -> max m p.at_round) 0 posts in
  for r = 0 to rounds + delta do
    List.iter
      (fun p -> if p.at_round = r then Ledger.post l p.tx ~delay:p.delay)
      posts;
    let evs = Ledger.tick l in
    after_tick l;
    let now = Ledger.height l in
    List.iter
      (fun e -> stream := Printf.sprintf "%d/%s" now (show_event e) :: !stream)
      evs
  done;
  (List.rev !stream, l)

(* Naive reference executor: the seed's semantics — a flat pending
   list of (due round, tx) in posting order, inline per-input
   validation, recording as it goes. The ledger it drives never sees
   posts of its own; [tick] only advances the clock. *)
let replay_reference ~delta (mint_specs, keys, posts, _) =
  let l = Ledger.create ~delta () in
  List.iter
    (fun (value, k) -> ignore (Ledger.mint l ~value ~spk:(p2wpkh (snd keys.(k)))))
    mint_specs;
  let pending = ref [] (* (due, tx), posting order *) in
  let stream = ref [] in
  let rounds = 1 + List.fold_left (fun m p -> max m p.at_round) 0 posts in
  for r = 0 to rounds + delta do
    List.iter
      (fun p ->
        if p.at_round = r then begin
          (* the seed posts with due = round + clamped delay and only
             processes pending at the tick after posting, so a 0-delay
             post still lands at the next round *)
          let delay = max 0 (min delta p.delay) in
          pending := !pending @ [ (r + max delay 1, p.tx) ]
        end)
      posts;
    ignore (Ledger.tick l);
    let now = Ledger.height l in
    let due, later = List.partition (fun (d, _) -> d <= now) !pending in
    pending := later;
    List.iter
      (fun (_, tx) ->
        let ev =
          match Ledger.validate l tx with
          | Ok () ->
              Ledger.record l tx;
              Ledger.Accepted tx
          | Error reason -> Ledger.Rejected (tx, reason)
        in
        stream := Printf.sprintf "%d/%s" now (show_event ev) :: !stream)
      due
  done;
  (List.rev !stream, l)

(* Duplicate-txid rejections in the same round as the acceptance of
   that txid: the tick had to see the copy it recorded earlier in the
   round. *)
let same_round_duplicates (stream : string list) : int =
  List.length
    (List.filter
       (fun ev ->
         match String.split_on_char ':' ev with
         | [ head; id; "duplicate txid" ] -> (
             match String.split_on_char '/' head with
             | [ round; "R" ] -> List.mem (Printf.sprintf "%s/A:%s" round id) stream
             | _ -> false)
         | _ -> false)
       stream)

let test_event_stream_differential () =
  let dups = ref 0 in
  let twice = ref 0 in
  List.iter
    (fun seed ->
      let delta = 2 in
      let trace = gen_trace ~seed ~rounds:12 ~keys:5 ~mints:8 in
      let ref_stream, ref_l = replay_reference ~delta trace in
      dups := !dups + same_round_duplicates ref_stream;
      twice :=
        !twice
        + List.length
            (List.filter
               (fun ev -> String.ends_with ~suffix:"spent twice" ev)
               ref_stream);
      let mint_specs, _, _, _ = trace in
      let minted = List.fold_left (fun acc (v, _) -> acc + v) 0 mint_specs in
      let no_value_created l =
        if Ledger.total_value l > minted then
          Alcotest.failf "seed %d, round %d: total value %d above the %d minted"
            seed (Ledger.height l) (Ledger.total_value l) minted
      in
      List.iter
        (fun domains ->
          let stream, l =
            Dpool.with_domains domains (fun () ->
                replay_indexed ~after_tick:no_value_created ~delta trace)
          in
          check_sl
            (Printf.sprintf "%d-domain tick = reference" domains)
            ref_stream stream;
          check_i
            (Printf.sprintf "same accepted count (%d domains)" domains)
            (Ledger.accepted_count ref_l) (Ledger.accepted_count l))
        [ 1; 2; 4 ])
    [ 3; 17; 42; 2026 ];
  check_b "traces re-post a txid within one round" true (!dups > 0);
  check_b "traces list an input twice" true (!twice > 0)

let test_indexed_reads_vs_scan () =
  let seed = 7 in
  let trace = gen_trace ~seed ~rounds:15 ~keys:4 ~mints:6 in
  let _, l = Dpool.with_domains 2 (fun () -> replay_indexed ~delta:2 trace) in
  let _, _, _, candidates = trace in
  (* indexed spender lookup vs the full-history linear scan *)
  List.iter
    (fun (op, _, _) ->
      let a = Ledger.spender_of l op in
      let b = Ref_tower.spender_of_scan l op in
      check_b "spender_of = spender_of_scan" true
        (match (a, b) with
        | None, None -> true
        | Some x, Some y -> String.equal (Tx.txid x) (Tx.txid y)
        | _ -> false))
    candidates;
  (* recorded rounds and counts vs the accepted list *)
  let acc = Ledger.accepted l in
  check_i "accepted_count = |accepted|" (List.length acc)
    (Ledger.accepted_count l);
  List.iter
    (fun (r, tx) ->
      check_b "recorded_round_of matches accepted" true
        (Ledger.recorded_round_of l (Tx.txid tx) = Some r))
    acc;
  check_b "unknown txid has no recorded round" true
    (Ledger.recorded_round_of l (String.make 32 'z') = None);
  (* the spent log is exactly the accepted transactions' inputs, in
     acceptance order *)
  let from_log = ref [] in
  let final = Ledger.iter_spent_since l ~cursor:0 (fun o -> from_log := o :: !from_log) in
  let expected =
    List.concat_map
      (fun (_, tx) -> List.map (fun (i : Tx.input) -> i.Tx.prevout) tx.Tx.inputs)
      acc
  in
  check_i "spent log length" (List.length expected) final;
  check_b "spent log contents" true (List.rev !from_log = expected);
  (* a cursor at the end sees nothing new *)
  let n = ref 0 in
  ignore (Ledger.iter_spent_since l ~cursor:final (fun _ -> incr n));
  check_i "cursor at end yields nothing" 0 !n

let test_accepted_view_cached () =
  let l = Ledger.create ~delta:1 () in
  let _, pk = Schnorr.keygen (Rng.create ~seed:1) in
  ignore (Ledger.mint l ~value:10 ~spk:(p2wpkh pk));
  let v1 = Ledger.accepted l in
  check_b "same physical list when unchanged" true (Ledger.accepted l == v1);
  ignore (Ledger.mint l ~value:11 ~spk:(p2wpkh pk));
  let v2 = Ledger.accepted l in
  check_i "view grew" 2 (List.length v2);
  check_b "rebuilt after recording" true (not (v2 == v1))

let test_checkpoint_rollback () =
  let l = Ledger.create ~delta:1 () in
  let rng = Rng.create ~seed:9 in
  let sk, pk = Schnorr.keygen rng in
  let _, pk2 = Schnorr.keygen rng in
  let op = Ledger.mint l ~value:100 ~spk:(p2wpkh pk) in
  let c = Ledger.checkpoint l in
  let body =
    Tx.make ~inputs:[ Tx.input_of_outpoint op ] ~outputs:[ { Tx.value = 100; spk = p2wpkh pk2 } ] ()
  in
  let sg = Sighash.sign sk All body ~input_index:0 in
  let tx =
    Tx.with_witnesses body [ [ Tx.Data sg; Tx.Data (Schnorr.encode_public_key pk) ] ]
  in
  Ledger.record l tx;
  check_b "spent after record" true (Ledger.spender_of l op <> None);
  check_i "accepted grew" 2 (Ledger.accepted_count l);
  Ledger.rollback l c;
  check_b "unspent after rollback" true (Ledger.is_unspent l op);
  check_b "spender index rolled back" true (Ledger.spender_of l op = None);
  check_b "txid index rolled back" true
    (Ledger.recorded_round_of l (Tx.txid tx) = None);
  check_i "accepted count restored" 1 (Ledger.accepted_count l);
  check_i "spent log restored" 1 (Ledger.spent_log_length l);
  (* the chain continues normally after a rollback *)
  check_b "tx still valid" true (Ledger.validate l tx = Ok ());
  Ledger.post l tx ~delay:0;
  ignore (Ledger.tick l);
  check_b "accepted after re-post" true (Ledger.spender_of l op <> None)

(* Bucketed pending must reproduce the flat-list semantics exactly:
   delay 0 and 1 land at the next tick, delay d at the d-th. *)
let test_pending_buckets () =
  List.iter
    (fun delay ->
      let l = Ledger.create ~delta:5 () in
      let sk, pk = Schnorr.keygen (Rng.create ~seed:1) in
      let op = Ledger.mint l ~value:10 ~spk:(p2wpkh pk) in
      let body =
        Tx.make ~inputs:[ Tx.input_of_outpoint op ] ~outputs:[ { Tx.value = 10; spk = p2wpkh pk } ] ()
      in
      let sg = Sighash.sign sk All body ~input_index:0 in
      let tx =
        Tx.with_witnesses body [ [ Tx.Data sg; Tx.Data (Schnorr.encode_public_key pk) ] ]
      in
      Ledger.post l tx ~delay;
      let landing = max delay 1 in
      for r = 1 to landing - 1 do
        ignore r;
        ignore (Ledger.tick l);
        check_b "not yet landed" true (Ledger.is_unspent l op)
      done;
      ignore (Ledger.tick l);
      check_b "landed at max(delay,1)" false (Ledger.is_unspent l op))
    [ 0; 1; 2; 5 ]

(* ---------------- watchtower differential ---------------- *)

(* Four real Daric channels on one shared environment; frauds on two.
   The cursor monitor and the reference tower's history scan must
   punish the same channels. *)
let test_watchtower_differential () =
  let env = I.make_env ~delta:1 ~seed:5 () in
  let chans =
    List.init 4 (fun k ->
        let cfg =
          { I.default_config with
            chan_id = Printf.sprintf "wt%d" k;
            party_seed = 300 + (2 * k) }
        in
        match DS.Scheme.open_channel env cfg with
        | Ok s -> s
        | Error e -> Alcotest.fail (I.error_to_string e))
  in
  List.iteri
    (fun k s ->
      match DS.Scheme.update s ~bal_a:(400_000 + k) ~bal_b:(600_000 - k) with
      | Ok () -> ()
      | Error e -> Alcotest.fail (I.error_to_string e))
    chans;
  let indexed = Watchtower.create ~wid:"indexed" () in
  let scan = Ref_tower.create () in
  List.iter
    (fun s ->
      match DS.watch_record s with
      | Some r ->
          check_b "indexed tower takes record" true (Watchtower.watch indexed r);
          check_b "scan tower takes record" true (Ref_tower.watch scan r)
      | None -> Alcotest.fail "no watch record after update")
    chans;
  check_i "indexed guards all" 4 (Watchtower.guarded_count indexed);
  let post tx = Daric_chain.Ledger.post env.I.ledger tx ~delay:0 in
  let poll_both () =
    let round = Daric_chain.Ledger.height env.I.ledger in
    Watchtower.end_of_round indexed ~round ~ledger:env.I.ledger ~post;
    Ref_tower.end_of_round scan ~ledger:env.I.ledger ~post
  in
  poll_both ();
  check_sl "no punishments yet (indexed)" [] (Watchtower.punished indexed);
  check_sl "no punishments yet (scan)" [] (Ref_tower.punished scan);
  (* frauds on channels 1 and 3, both parties frozen *)
  DS.publish_revoked (List.nth chans 1);
  DS.publish_revoked (List.nth chans 3);
  I.settle env 1;
  poll_both ();
  I.settle env 1;
  poll_both ();
  let sorted = List.sort String.compare in
  check_sl "both towers punished the same channels" [ "wt1"; "wt3" ]
    (sorted (Watchtower.punished indexed));
  check_sl "scan tower agrees"
    (sorted (Watchtower.punished indexed))
    (sorted (Ref_tower.punished scan));
  (* the revocation transactions actually confirmed on chain *)
  List.iter
    (fun k ->
      let s = List.nth chans k in
      let f = DS.Scheme.funding s in
      check_b "funding spent" false (Daric_chain.Ledger.is_unspent env.I.ledger f))
    [ 1; 3 ];
  (* punishing reclaimed the two punished channels' records; unwatch
     (O(1), both index entries) reclaims a third — of 4 watches only
     the untouched channel still holds storage *)
  check_i "guarded count after punish" 2 (Watchtower.guarded_count indexed);
  Watchtower.unwatch indexed ~channel_id:"wt0";
  check_i "guarded count after unwatch" 1 (Watchtower.guarded_count indexed)

(* ---------------- utility modules ---------------- *)

let test_vec () =
  let v = Vec.create ~dummy:(-1) () in
  for i = 0 to 99 do Vec.push v i done;
  check_i "length" 100 (Vec.length v);
  check_i "get" 57 (Vec.get v 57);
  let seen = ref [] in
  Vec.iter_from v ~from:95 (fun x -> seen := x :: !seen);
  check_b "iter_from tail" true (List.rev !seen = [ 95; 96; 97; 98; 99 ]);
  Vec.truncate v 10;
  check_i "truncated" 10 (Vec.length v);
  check_b "to_list" true (Vec.to_list v = List.init 10 Fun.id);
  check_b "to_array" true (Vec.to_array v = Array.init 10 Fun.id);
  for i = 10 to 20 do Vec.push v i done;
  check_i "regrows" 21 (Vec.length v);
  Vec.clear v;
  check_i "cleared" 0 (Vec.length v);
  Vec.push v 5;
  check_b "reusable after clear" true (Vec.to_list v = [ 5 ])

let test_dpool () =
  (* forced counts drive the chunked map; results match the sequential
     fold regardless of the domain count *)
  let xs = Array.init 1000 Fun.id in
  let expect = Array.fold_left ( + ) 0 xs in
  List.iter
    (fun k ->
      Dpool.with_domains k (fun () ->
          check_i
            (Printf.sprintf "count forced to %d" k)
            k (Dpool.count ());
          let partials = Dpool.map_chunks (Array.fold_left ( + ) 0) xs in
          check_i "chunked sum" expect (Array.fold_left ( + ) 0 partials);
          check_b "all_chunks true" true
            (Dpool.all_chunks (Array.for_all (fun x -> x >= 0)) xs);
          check_b "all_chunks false" false
            (Dpool.all_chunks (Array.for_all (fun x -> x < 999)) xs)))
    [ 1; 2; 3 ]

exception Boom

let test_dpool_exceptions () =
  let xs = Array.init 64 Fun.id in
  (* an exception raised on a worker chunk resurfaces on the calling
     domain, for every forced count *)
  List.iter
    (fun k ->
      Dpool.with_domains k (fun () ->
          Alcotest.check_raises
            (Printf.sprintf "worker exception propagates (%d domains)" k)
            Boom
            (fun () ->
              ignore
                (Dpool.map_chunks
                   (fun chunk -> if Array.exists (fun x -> x >= 32) chunk then raise Boom else 0)
                   xs))))
    [ 1; 2; 4 ];
  (* the pool stays usable after a propagated failure *)
  Dpool.with_domains 2 (fun () ->
      let partials = Dpool.map_chunks (Array.fold_left ( + ) 0) xs in
      check_i "pool reusable after exception" (Array.fold_left ( + ) 0 xs)
        (Array.fold_left ( + ) 0 partials))

let test_dpool_env_parsing () =
  let original = Sys.getenv_opt "DPOOL_DOMAINS" in
  let set v = Unix.putenv "DPOOL_DOMAINS" v in
  Fun.protect
    ~finally:(fun () -> set (Option.value ~default:"" original))
    (fun () ->
      (* a valid setting wins over the runtime recommendation *)
      set "5";
      check_i "explicit count" 5 (Dpool.count ());
      set " 3 ";
      check_i "whitespace trimmed" 3 (Dpool.count ());
      (* the recommendation is whatever an unparseable setting falls
         back to; all rejected forms must agree with it and be >= 1 *)
      set "";
      let fallback = Dpool.count () in
      check_b "fallback is positive" true (fallback >= 1);
      List.iter
        (fun bad ->
          set bad;
          check_i (Printf.sprintf "rejected %S" bad) fallback (Dpool.count ()))
        [ "0"; "-2"; "garbage"; "2.5" ];
      (* with_domains overrides any environment setting *)
      set "7";
      Dpool.with_domains 2 (fun () ->
          check_i "with_domains beats env" 2 (Dpool.count ()));
      check_i "env restored after with_domains" 7 (Dpool.count ()))

let () =
  Alcotest.run "daric-scale"
    [ ( "differential",
        [ Alcotest.test_case "event streams (seq/par/reference)" `Quick
            test_event_stream_differential;
          Alcotest.test_case "indexed reads vs scan oracle" `Quick
            test_indexed_reads_vs_scan;
          Alcotest.test_case "watchtower cursor vs scan monitor" `Quick
            test_watchtower_differential ] );
      ( "ledger-internals",
        [ Alcotest.test_case "accepted view caching" `Quick
            test_accepted_view_cached;
          Alcotest.test_case "checkpoint/rollback" `Quick
            test_checkpoint_rollback;
          Alcotest.test_case "pending bucket semantics" `Quick
            test_pending_buckets ] );
      ( "util",
        [ Alcotest.test_case "vec" `Quick test_vec;
          Alcotest.test_case "dpool" `Quick test_dpool;
          Alcotest.test_case "dpool exceptions" `Quick test_dpool_exceptions;
          Alcotest.test_case "dpool env parsing" `Quick test_dpool_env_parsing ] ) ]
