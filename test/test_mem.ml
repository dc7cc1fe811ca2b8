(* Memory-engine differentials.

   The watchtower keeps records as encoded bytes in an arena and polls
   through the ledger's spent log. A random trace of watch / unwatch /
   fraud / recovery operations is applied to it, to a twin that never
   crashes, and to the boxed, scanning reference tower
   ({!Daric_oracle.Ref_tower}); all three must stay observably
   identical — guarded set, punished set, storage bytes and record
   blobs — and at every recovery the restored tower's durable
   snapshot must equal the twin's byte for byte. Body sharing gets a
   memo-key check: equal generator arguments return one physical
   body, and changing any one argument changes the txid. Plus: the
   arena reclaims churned slots (a tower's heap tracks its guarded
   count, not its lifetime watch count), a packed ledger entry decodes
   back to the transaction that was recorded, a bounded
   {!Daric_util.Memo} table stays exact across its resets, and the
   retained-words-per-channel figure at N=1k stays under a regression
   bound. The suite is run under DPOOL_DOMAINS 1/2/4 and once under
   OCAMLRUNPARAM=s=64k (tiny minor heap) via the dune alias; the
   retained-words case also runs alone, in its own process. *)

module Tx = Daric_tx.Tx
module Ledger = Daric_chain.Ledger
module Watchtower = Daric_core.Watchtower
module Persist = Daric_core.Persist
module Txs = Daric_core.Txs
module Keys = Daric_core.Keys
module Arena = Daric_util.Arena
module Memo = Daric_util.Memo
module Rng = Daric_util.Rng
module I = Daric_schemes.Scheme_intf
module DS = Daric_schemes.Daric_scheme
module Ref_tower = Daric_oracle.Ref_tower

let check_b = Alcotest.(check bool)
let check_i = Alcotest.(check int)
let check_sl = Alcotest.(check (list string))

(* ---------------- arena unit behaviour ---------------- *)

let test_arena () =
  let a = Arena.create ~chunk_bytes:256 () in
  let s1 = Arena.store a "hello" in
  let s2 = Arena.store a (String.make 100 'x') in
  check_b "read back" true (Arena.read a s1 = "hello");
  check_b "read back long" true (Arena.read a s2 = String.make 100 'x');
  check_i "live bytes" 105 (Arena.live_bytes a);
  check_i "live slots" 2 (Arena.live_slots a);
  (* in-place replace within the slot's size class, from the middle of
     a larger source string *)
  let s1' = Arena.replace_sub a s1 "<<world!!>>" ~off:2 ~len:7 in
  check_b "replace reuses slot" true
    (Arena.read a s1' = "world!!" && Arena.live_slots a = 2);
  (* replace that outgrows the class frees and restores *)
  let s1'' = Arena.replace_sub a s1' (String.make 40 'y') ~off:0 ~len:40 in
  check_b "grown replace" true (Arena.read a s1'' = String.make 40 'y');
  Arena.free a s1'';
  Arena.free a s1'';
  (* double free is idempotent *)
  check_i "one slot left" 1 (Arena.live_slots a);
  check_i "live bytes after free" 100 (Arena.live_bytes a);
  (* freed slots are reused: store the same sizes many times and the
     capacity must stop growing *)
  let cap0 = ref 0 in
  for i = 1 to 50 do
    let s = Arena.store a (String.make 40 'z') in
    Arena.free a s;
    if i = 1 then cap0 := Arena.capacity_bytes a
  done;
  check_i "free-list reuse keeps capacity flat" !cap0 (Arena.capacity_bytes a);
  (* blobs larger than a chunk get their own chunk *)
  let big = Arena.store a (String.make 1000 'b') in
  check_b "oversized blob" true (Arena.read a big = String.make 1000 'b');
  let sub = Arena.store_sub a "..span.." ~off:2 ~len:4 in
  check_b "store from an offset" true (Arena.read a sub = "span")

(* A cap-4 memo fed a key sequence that overflows it many times,
   against a model of the table: every result equals [f key]; a key
   still in the table returns the physically same value without
   running [f]; a miss runs [f] once and, on a full table, resets it.
   Another domain starts with an empty table of its own. *)
let test_memo () =
  let cap = 4 in
  let calls = ref 0 in
  let f k =
    incr calls;
    Bytes.of_string (string_of_int k)
  in
  let memo = Memo.make ~cap f in
  let model = Hashtbl.create cap in
  let resets = ref 0 in
  let rng = Rng.create ~seed:11 in
  for step = 1 to 400 do
    let k = Rng.int rng 7 in
    let before = !calls in
    let v = memo k in
    check_b "result equals f key" true (Bytes.equal v (Bytes.of_string (string_of_int k)));
    match Hashtbl.find_opt model k with
    | Some cached ->
        check_b (Printf.sprintf "step %d: hit is the cached value" step) true (v == cached);
        check_i "a hit does not run f" before !calls
    | None ->
        check_i "a miss runs f once" (before + 1) !calls;
        if Hashtbl.length model >= cap then begin
          Hashtbl.reset model;
          incr resets
        end;
        Hashtbl.add model k v
  done;
  check_b "the table overflowed several times" true (!resets >= 10);
  let k = Hashtbl.fold (fun k _ _ -> k) model 0 in
  let before = !calls in
  ignore (Domain.join (Domain.spawn (fun () -> memo k)));
  check_i "a fresh domain misses" (before + 1) !calls

(* ---------------- world builder ---------------- *)

let build_world ?(channels = 4) ?(updates = 1) ~seed () =
  let env = I.make_env ~delta:1 ~seed () in
  let chans =
    Array.init channels (fun k ->
        let cfg =
          { I.default_config with
            chan_id = Printf.sprintf "mm%d" k;
            party_seed = 700 + (2 * k) }
        in
        match DS.Scheme.open_channel env cfg with
        | Ok s -> s
        | Error e -> Alcotest.fail (I.error_to_string e))
  in
  Array.iteri
    (fun k s ->
      for u = 1 to updates do
        match
          DS.Scheme.update s ~bal_a:(400_000 + k + u) ~bal_b:(600_000 - k - u)
        with
        | Ok () -> ()
        | Error e -> Alcotest.fail (I.error_to_string e)
      done)
    chans;
  (env, chans)

(* ---------------- tower-vs-reference trace differential ---------------- *)

type op = Watch of int | Unwatch of int | Fraud of int | Recover

let show_op = function
  | Watch i -> Printf.sprintf "W%d" i
  | Unwatch i -> Printf.sprintf "U%d" i
  | Fraud i -> Printf.sprintf "F%d" i
  | Recover -> "R"

let chan_id k = Printf.sprintf "mm%d" k

(* Observables the reference tower also has. Record blobs are
   compared as sorted encode_record bytes, so the arena contents are
   checked against re-encoded boxed records, not just counted. *)
let observe (t : Watchtower.t) =
  let blobs = ref [] in
  Watchtower.iter_record_blobs t (fun b -> blobs := b :: !blobs);
  ( Watchtower.guarded_count t,
    Watchtower.storage_bytes t,
    List.sort String.compare (Watchtower.punished t),
    List.sort String.compare !blobs )

let observe_ref (t : Ref_tower.t) =
  ( Ref_tower.guarded_count t,
    Ref_tower.storage_bytes t,
    List.sort String.compare (Ref_tower.punished t),
    Ref_tower.record_blobs t )

let run_pair_trace (ops : op list) : unit =
  let nchans = 4 in
  let env, chans = build_world ~channels:nchans ~seed:5 () in
  (* [tower] loses its RAM at every [Recover]; [twin] never does *)
  let tower = ref (Watchtower.create ~wid:"m" ()) in
  let twin = Watchtower.create ~wid:"m" () in
  let oracle = Ref_tower.create () in
  let post tx = Ledger.post env.I.ledger tx ~delay:0 in
  let poll () =
    let round = Ledger.height env.I.ledger in
    (* the first tower to react posts the revocation; the identical
       posts after it are duplicates the ledger rejects — on-chain
       effect identical either way *)
    Watchtower.end_of_round !tower ~round ~ledger:env.I.ledger ~post;
    Watchtower.end_of_round twin ~round ~ledger:env.I.ledger ~post;
    Ref_tower.end_of_round oracle ~ledger:env.I.ledger ~post
  in
  let frauded = Array.make nchans false in
  let apply = function
    | Watch i -> (
        match DS.watch_record chans.(i) with
        | Some r ->
            let a = Watchtower.watch !tower r in
            let b = Watchtower.watch twin r in
            let c = Ref_tower.watch oracle r in
            check_b "watch verdicts agree" true (a = b && b = c)
        | None -> Alcotest.fail "no watch record")
    | Unwatch i ->
        Watchtower.unwatch !tower ~channel_id:(chan_id i);
        Watchtower.unwatch twin ~channel_id:(chan_id i);
        Ref_tower.unwatch oracle ~channel_id:(chan_id i)
    | Fraud i ->
        if not frauded.(i) then begin
          frauded.(i) <- true;
          DS.publish_revoked chans.(i);
          I.settle env 1;
          poll ();
          I.settle env 1;
          poll ()
        end
    | Recover ->
        let twin_snap = Persist.encode_tower twin in
        let snap = Persist.encode_tower !tower in
        check_b "snapshot before the crash = twin's" true
          (String.equal snap twin_snap);
        (match Persist.restore_tower snap with
        | Ok t -> tower := t
        | Error e -> Alcotest.fail (Persist.error_to_string e));
        check_b "restored tower's snapshot = twin's" true
          (String.equal (Persist.encode_tower !tower) twin_snap)
  in
  List.iteri
    (fun step op ->
      apply op;
      let label what = Printf.sprintf "step %d %s: %s" step (show_op op) what in
      let gt, st, pt, bt = observe !tower in
      let gw, sw, pw, bw = observe twin in
      let gr, sr, pr, br = observe_ref oracle in
      List.iter
        (fun (who, g, s, p, b) ->
          check_i (label (who ^ " guarded")) gr g;
          check_i (label (who ^ " storage bytes")) sr s;
          check_sl (label (who ^ " punished")) pr p;
          check_b (label (who ^ " record blobs")) true (b = br))
        [ ("tower", gt, st, pt, bt); ("twin", gw, sw, pw, bw) ];
      check_i (label "cursor") (Watchtower.cursor twin)
        (Watchtower.cursor !tower))
    ops;
  (* every fraud on a still-watched channel must have been punished by
     all three towers, and the revocations really confirmed *)
  let punished = Ref_tower.punished oracle in
  Array.iteri
    (fun i s ->
      if frauded.(i) && List.mem (chan_id i) punished then
        check_b "funding spent for punished channel" false
          (Ledger.is_unspent env.I.ledger (DS.Scheme.funding s)))
    chans

let gen_ops =
  QCheck.Gen.(
    list_size (int_range 1 10)
      (oneof
         [ map (fun i -> Watch i) (int_range 0 3);
           map (fun i -> Unwatch i) (int_range 0 3);
           map (fun i -> Fraud i) (int_range 0 3);
           return Recover ]))

let fuzz_tower_vs_ref =
  QCheck.Test.make ~count:15
    ~name:"tower = crash-free twin = reference tower (random traces)"
    (QCheck.make gen_ops
       ~print:(fun ops -> String.concat " " (List.map show_op ops)))
    (fun ops ->
      run_pair_trace ops;
      true)

(* Directed traces hitting the interesting corners:
   - watch-all, fraud, re-watch a punished channel, unwatch, recover,
     fraud after recovery;
   - a channel unwatched while still queued for the next poll's direct
     check, between recoveries: the restored tower no longer queues it,
     so neither its snapshot nor its crash-free twin's may depend on the
     queue's stale entries;
   - a channel re-watched after such an unwatch, which the live queue
     holds twice and the restored one once;
   - a fraud while the channel is unwatched, then a re-watch: the spend
     is behind the spent-log cursor, so only the direct check of newly
     watched channels can catch it. *)
let test_directed_trace () =
  List.iter run_pair_trace
    [ [ Watch 0; Watch 1; Watch 2; Watch 3; Fraud 1; Watch 1; Unwatch 2;
        Recover; Fraud 0; Watch 2; Recover; Fraud 3 ];
      [ Watch 0; Watch 1; Unwatch 2; Recover; Unwatch 1; Recover; Watch 2;
        Recover ];
      [ Watch 1; Unwatch 1; Recover; Watch 1; Recover ];
      [ Watch 0; Unwatch 0; Fraud 0; Watch 0; Fraud 1 ] ]

(* ---------------- churn: heap tracks guarded count (S1) ---------------- *)

let test_churn_reclaims () =
  let _, chans = build_world ~channels:6 ~seed:9 () in
  let records =
    Array.map
      (fun s ->
        match DS.watch_record s with
        | Some r -> r
        | None -> Alcotest.fail "no record")
      chans
  in
  let t = Watchtower.create ~wid:"churn" () in
  Array.iter (fun r -> ignore (Watchtower.watch t r)) records;
  let live_full = Watchtower.arena_live_bytes t in
  let cap_full = Watchtower.arena_capacity_bytes t in
  check_b "arena holds the records" true (live_full > 0);
  for _cycle = 1 to 8 do
    Array.iter
      (fun (r : Watchtower.record) ->
        Watchtower.unwatch t ~channel_id:r.Watchtower.channel_id)
      records;
    check_i "all reclaimed" 0 (Watchtower.guarded_count t);
    check_i "no live arena bytes" 0 (Watchtower.arena_live_bytes t);
    check_i "storage bytes reclaimed" 0 (Watchtower.storage_bytes t);
    Array.iter (fun r -> ignore (Watchtower.watch t r)) records;
    check_i "re-watched" 6 (Watchtower.guarded_count t)
  done;
  (* 8 churn cycles re-used the free-listed slots: the arena's heap
     footprint tracks the guarded count, not the 54 lifetime watches *)
  check_i "arena capacity flat across churn" cap_full
    (Watchtower.arena_capacity_bytes t);
  check_i "live bytes back to full" live_full (Watchtower.arena_live_bytes t)

(* ---------------- body sharing differential ---------------- *)

(* Both parties of an update generate the same bodies; the memos make
   them one physical body. Equal arguments must hit the memo, and a
   change to any single argument must miss it — a memo key that
   dropped or conflated an argument would hand one channel another
   state's transaction. *)
let test_body_sharing_memo_keys () =
  let rng = Rng.create ~seed:77 in
  let ka = Keys.pub (Keys.generate rng) and kb = Keys.pub (Keys.generate rng) in
  let kc = Keys.pub (Keys.generate rng) in
  let txids2 (a, b) = (Tx.txid a, Tx.txid b) in
  let s0 = 500_000_000 in
  let funding = { Tx.txid = String.make 32 'f'; vout = 0 } in
  let commit ?(funding = funding) ?(value = 1_000) ?(keys_a = ka)
      ?(keys_b = kb) ?(s0 = s0) ?(i = 3) ?(rel_lock = 6) () =
    Txs.gen_commit ~funding ~value ~keys_a ~keys_b ~s0 ~i ~rel_lock
  in
  let c1, c1' = commit () and c2, c2' = commit () in
  check_b "equal commit arguments share one body" true (c1 == c2 && c1' == c2');
  List.iter
    (fun (arg, pair) ->
      check_b ("commit txids change with " ^ arg) true
        (let a, b = txids2 pair in
         a <> Tx.txid c1 && b <> Tx.txid c1'))
    [ ( "funding txid",
        commit ~funding:{ funding with Tx.txid = String.make 32 'g' } () );
      ("funding vout", commit ~funding:{ funding with Tx.vout = 1 } ());
      ("value", commit ~value:1_001 ());
      ("keys_a", commit ~keys_a:kc ());
      ("keys_b", commit ~keys_b:kc ());
      ("s0", commit ~s0:(s0 + 1) ());
      ("i", commit ~i:4 ());
      ("rel_lock", commit ~rel_lock:7 ()) ];
  let theta =
    [ { Tx.value = 600; spk = Tx.P2wpkh (String.make 20 'a') };
      { Tx.value = 400; spk = Tx.P2wpkh (String.make 20 'b') } ]
  in
  let split ?(theta = theta) ?(s0 = s0) ?(i = 2) () =
    Txs.gen_split ~theta ~s0 ~i
  in
  check_b "equal split arguments share one body" true (split () == split ());
  List.iter
    (fun (arg, tx) ->
      check_b ("split txid changes with " ^ arg) true
        (Tx.txid tx <> Tx.txid (split ())))
    [ ("theta", split ~theta:(List.rev theta) ());
      ("s0", split ~s0:(s0 + 1) ());
      ("i", split ~i:3 ()) ];
  let revoke ?(pk_a = ka.Keys.main_pk) ?(pk_b = kb.Keys.main_pk) ?(cash = 1_000)
      ?(s0 = s0) ?(revoked = 2) () =
    Txs.gen_revoke ~pk_a ~pk_b ~cash ~s0 ~revoked
  in
  let r1, r1' = revoke () and r2, r2' = revoke () in
  check_b "equal revocation arguments share one pair" true
    (r1 == r2 && r1' == r2');
  List.iter
    (fun (arg, pair) ->
      check_b ("revocation txids change with " ^ arg) true
        (txids2 pair <> txids2 (r1, r1')))
    [ ("pk_a", revoke ~pk_a:kc.Keys.main_pk ());
      ("pk_b", revoke ~pk_b:kc.Keys.main_pk ());
      ("cash", revoke ~cash:1_001 ());
      ("s0", revoke ~s0:(s0 + 1) ());
      ("revoked", revoke ~revoked:3 ()) ]

(* A packed accepted-log entry re-materializes as the transaction that
   was recorded: two reads are two decodes of the arena bytes, each
   equal to the original, txid included. A re-materialized
   transaction is transient. *)
let test_packed_decodes () =
  let l = Ledger.create ~delta:1 ~compact_depth:1 () in
  let funded =
    Ledger.mint l ~value:1_000 ~spk:(Tx.P2wpkh (String.make 20 'k'))
  in
  let spend =
    Tx.make
      ~inputs:[ Tx.input_of_outpoint funded ]
      ~outputs:[ { Tx.value = 900; spk = Tx.P2wsh (String.make 32 's') } ]
      ()
  in
  Ledger.record l spend;
  for _ = 1 to 3 do
    ignore (Ledger.tick l)
  done;
  check_b "entry packed" true (Ledger.compacted_count l > 0);
  match (Ledger.spender_of l funded, Ledger.spender_of l funded) with
  | Some a, Some b ->
      check_b "two separate decodes" true (not (a == b));
      List.iter
        (fun (d : Tx.t) ->
          check_b "decode equals the recorded tx" true
            (d.Tx.inputs = spend.Tx.inputs
            && d.Tx.outputs = spend.Tx.outputs
            && String.equal (Tx.txid d) (Tx.txid spend)))
        [ a; b ]
  | _ -> Alcotest.fail "no spender for the funded outpoint"

(* ---------------- retained-words regression bound ---------------- *)

(* Measured after this PR: ~3.3k words/channel at N=1k (parties +
   packed tower + compacted ledger + indexes). The bound is ~2x
   headroom — it exists to catch a regression that re-boxes retained
   state (the boxed tower alone was worth ~1k words/channel, an
   un-compacted accepted log several hundred more), not to pin the
   exact figure across allocator versions. *)
let retained_words_bound = 7_000.

let test_retained_words_per_channel () =
  let s = Daric_analysis.Memprobe.run ~channels:1_000 ~updates:2 () in
  check_b
    (Printf.sprintf "retained words/channel %.1f under bound %.0f"
       s.Daric_analysis.Memprobe.retained_words_per_channel
       retained_words_bound)
    true
    (s.Daric_analysis.Memprobe.retained_words_per_channel
    < retained_words_bound);
  check_b "tower arena carries the records" true
    (s.Daric_analysis.Memprobe.tower_arena_bytes > 0);
  check_b "accepted log compacted" true
    (s.Daric_analysis.Memprobe.ledger_compacted > 0)

let () =
  Alcotest.run "daric-mem"
    [ ( "engine",
        [ Alcotest.test_case "arena store/replace/free/reuse" `Quick test_arena;
          Alcotest.test_case "bounded memo resets" `Quick test_memo;
          Alcotest.test_case "packed-entry decodes equal the recorded tx" `Quick
            test_packed_decodes;
          Alcotest.test_case "directed tower-vs-reference trace" `Quick
            test_directed_trace;
          Alcotest.test_case "churn reclaims arena slots" `Quick
            test_churn_reclaims;
          Alcotest.test_case "body sharing memo keys" `Quick
            test_body_sharing_memo_keys ] );
      (* a group of its own so @memdiff can also run it alone *)
      ( "retained",
        [ Alcotest.test_case "retained words per channel at N=1k" `Slow
            test_retained_words_per_channel ] );
      ( "fuzz",
        [ QCheck_alcotest.to_alcotest fuzz_tower_vs_ref ] ) ]
