(* Memory-engine differentials.

   The packed watchtower (records as encoded bytes in an arena) is an
   alternative REPRESENTATION of the boxed tower, not an alternative
   behaviour: a random trace of watch / unwatch / fraud / recovery
   operations applied to both backends must leave them observably
   identical — guarded set, punished set, storage bytes, record blobs
   and byte-identical durable snapshots — with the packed side
   additionally surviving a snapshot-recovery in the middle of the
   trace. Body sharing (one commit/split/revocation body per update
   shared by both parties) gets the same treatment against the
   fresh-copy generators. Plus: the arena reclaims churned slots (a
   tower's heap tracks its guarded count, not its lifetime watch
   count), the interner actually shares payloads, and the
   retained-words-per-channel figure at N=1k stays under a regression
   bound. The suite is run under DPOOL_DOMAINS 1/2/4 and once under
   OCAMLRUNPARAM=s=64k (tiny minor heap) via the dune alias. *)

module Tx = Daric_tx.Tx
module Ledger = Daric_chain.Ledger
module Watchtower = Daric_core.Watchtower
module Persist = Daric_core.Persist
module Txs = Daric_core.Txs
module Keys = Daric_core.Keys
module Arena = Daric_util.Arena
module Intern = Daric_util.Intern
module Rng = Daric_util.Rng
module I = Daric_schemes.Scheme_intf
module DS = Daric_schemes.Daric_scheme

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

let test_intern () =
  let a = Intern.string (String.concat "-" [ "intern"; "me" ]) in
  let b = Intern.string (String.concat "-" [ "intern"; "me" ]) in
  check_b "same physical string" true (a == b);
  check_b "content preserved" true (String.equal a "intern-me");
  let long = String.make 4096 'l' in
  check_b "overlong strings pass through" true (Intern.string long == long)

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

(* ---------------- arena-vs-boxed trace differential ---------------- *)

type op = Watch of int | Unwatch of int | Fraud of int | Recover

let show_op = function
  | Watch i -> Printf.sprintf "W%d" i
  | Unwatch i -> Printf.sprintf "U%d" i
  | Fraud i -> Printf.sprintf "F%d" i
  | Recover -> "R"

let chan_id k = Printf.sprintf "mm%d" k

(* Observables that must agree between the two backends after every
   operation. Record blobs are compared as sorted encode_record bytes,
   so the packed arena contents are checked against re-encoded boxed
   records, not just counted. *)
let observe (t : Watchtower.t) =
  let blobs = ref [] in
  Watchtower.iter_record_blobs t (fun b -> blobs := b :: !blobs);
  ( Watchtower.guarded_count t,
    Watchtower.storage_bytes t,
    List.sort String.compare (Watchtower.punished t),
    Watchtower.cursor t,
    List.sort String.compare !blobs )

let run_pair_trace (ops : op list) : unit =
  let nchans = 4 in
  let env, chans = build_world ~channels:nchans ~seed:5 () in
  let packed = ref (Watchtower.create ~backend:Watchtower.Packed ~wid:"m" ()) in
  let boxed = Watchtower.create ~backend:Watchtower.Boxed ~wid:"m" () in
  check_b "backends differ" true
    (Watchtower.backend !packed = Watchtower.Packed
    && Watchtower.backend boxed = Watchtower.Boxed);
  let post tx = Ledger.post env.I.ledger tx ~delay:0 in
  let poll () =
    let round = Ledger.height env.I.ledger in
    (* packed reacts first; the boxed oracle's identical revocation
       post is then a duplicate the ledger rejects — on-chain effect
       identical either way *)
    Watchtower.end_of_round !packed ~round ~ledger:env.I.ledger ~post;
    Watchtower.end_of_round boxed ~round ~ledger:env.I.ledger ~post
  in
  let frauded = Array.make nchans false in
  let apply = function
    | Watch i -> (
        match DS.watch_record chans.(i) with
        | Some r ->
            let a = Watchtower.watch !packed r in
            let b = Watchtower.watch boxed r in
            check_b "watch verdicts agree" true (a = b)
        | None -> Alcotest.fail "no watch record")
    | Unwatch i ->
        Watchtower.unwatch !packed ~channel_id:(chan_id i);
        Watchtower.unwatch boxed ~channel_id:(chan_id i)
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
        (* the durable snapshot is representation-independent... *)
        let sp = Persist.encode_tower !packed in
        let sb = Persist.encode_tower boxed in
        check_b "snapshots byte-identical across backends" true
          (String.equal sp sb);
        (* ...and the packed side must survive losing its RAM *)
        (match Persist.restore_tower sp with
        | Ok t -> packed := t
        | Error e -> Alcotest.fail (Persist.error_to_string e))
  in
  List.iteri
    (fun step op ->
      apply op;
      let op_name = show_op op in
      let gp, sp, pp, cp, bp = observe !packed in
      let gb, sb, pb, cb, bb = observe boxed in
      check_i (Printf.sprintf "step %d %s: guarded" step op_name) gb gp;
      check_i (Printf.sprintf "step %d %s: storage bytes" step op_name) sb sp;
      check_sl (Printf.sprintf "step %d %s: punished" step op_name) pb pp;
      check_i (Printf.sprintf "step %d %s: cursor" step op_name) cb cp;
      check_b (Printf.sprintf "step %d %s: record blobs" step op_name) true
        (bp = bb))
    ops;
  (* every fraud on a still-watched channel must have been punished by
     both towers, and the revocations really confirmed *)
  let _, _, punished, _, _ = observe boxed in
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

let fuzz_arena_vs_boxed =
  QCheck.Test.make ~count:15 ~name:"arena tower = boxed tower (random traces)"
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
     so the snapshots of both towers must not depend on the queue's
     stale entries;
   - a channel re-watched after such an unwatch, which the live queue
     holds twice and the restored one once. *)
let test_directed_trace () =
  List.iter run_pair_trace
    [ [ Watch 0; Watch 1; Watch 2; Watch 3; Fraud 1; Watch 1; Unwatch 2;
        Recover; Fraud 0; Watch 2; Recover; Fraud 3 ];
      [ Watch 0; Watch 1; Unwatch 2; Recover; Unwatch 1; Recover; Watch 2;
        Recover ];
      [ Watch 1; Unwatch 1; Recover; Watch 1; Recover ] ]

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

let test_body_sharing_differential () =
  (* the same scale trace with body sharing on and off must be
     observably identical everywhere the system can be probed *)
  let probe sharing =
    Txs.set_sharing sharing;
    Fun.protect
      ~finally:(fun () -> Txs.set_sharing true)
      (fun () ->
        let s =
          Daric_analysis.Scale.run ~channels:8 ~updates:2 ~frauds:3 ~seed:21 ()
        in
        ( s.Daric_analysis.Scale.punished,
          s.Daric_analysis.Scale.frauds,
          s.Daric_analysis.Scale.ledger_height,
          s.Daric_analysis.Scale.accepted_txs,
          s.Daric_analysis.Scale.tower_storage_bytes ))
  in
  check_b "shared trace = copied trace" true (probe true = probe false)

let test_body_sharing_physical () =
  let rng = Rng.create ~seed:77 in
  let ka = Keys.generate rng and kb = Keys.generate rng in
  let keys_a = Keys.pub ka and keys_b = Keys.pub kb in
  let funding = { Tx.txid = String.make 32 'f'; vout = 0 } in
  let args () =
    Txs.gen_commit ~funding ~value:1_000 ~keys_a ~keys_b ~s0:500_000_000 ~i:3
      ~rel_lock:6
  in
  let c1, c1' = args () in
  let c2, c2' = args () in
  check_b "both parties share one commit body" true (c1 == c2 && c1' == c2');
  let f1, f1' =
    Txs.gen_commit_fresh ~funding ~value:1_000 ~keys_a ~keys_b ~s0:500_000_000
      ~i:3 ~rel_lock:6
  in
  check_b "fresh copies are distinct" true (not (f1 == c1));
  check_b "shared and fresh are byte-identical" true
    (Tx.txid f1 = Tx.txid c1 && Tx.txid f1' = Tx.txid c1');
  let theta =
    [ { Tx.value = 600; spk = Tx.P2wpkh (String.make 20 'a') };
      { Tx.value = 400; spk = Tx.P2wpkh (String.make 20 'b') } ]
  in
  check_b "split body shared" true
    (Txs.gen_split ~theta ~s0:500_000_000 ~i:2
    == Txs.gen_split ~theta ~s0:500_000_000 ~i:2);
  check_b "split fresh distinct but equal" true
    (let a = Txs.gen_split_fresh ~theta ~s0:500_000_000 ~i:2 in
     let b = Txs.gen_split ~theta ~s0:500_000_000 ~i:2 in
     (not (a == b)) && Tx.txid a = Tx.txid b);
  let rv () =
    Txs.gen_revoke ~pk_a:keys_a.Keys.main_pk ~pk_b:keys_b.Keys.main_pk
      ~cash:1_000 ~s0:500_000_000 ~revoked:2
  in
  let r1, r1' = rv () and r2, r2' = rv () in
  check_b "revocation pair shared" true (r1 == r2 && r1' == r2');
  let rf, rf' =
    Txs.gen_revoke_fresh ~pk_a:keys_a.Keys.main_pk ~pk_b:keys_b.Keys.main_pk
      ~cash:1_000 ~s0:500_000_000 ~revoked:2
  in
  check_b "fresh revocations equal the shared ones" true
    (Tx.txid rf = Tx.txid r1 && Tx.txid rf' = Tx.txid r1')

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
    (s.Daric_analysis.Memprobe.ledger_compacted > 0);
  check_b "interner shared payloads" true
    (s.Daric_analysis.Memprobe.intern_saved_bytes > 0)

let () =
  Alcotest.run "daric-mem"
    [ ( "engine",
        [ Alcotest.test_case "arena store/replace/free/reuse" `Quick test_arena;
          Alcotest.test_case "interning" `Quick test_intern;
          Alcotest.test_case "directed arena-vs-boxed trace" `Quick
            test_directed_trace;
          Alcotest.test_case "churn reclaims arena slots" `Quick
            test_churn_reclaims;
          Alcotest.test_case "body sharing differential" `Slow
            test_body_sharing_differential;
          Alcotest.test_case "body sharing is physical" `Quick
            test_body_sharing_physical;
          Alcotest.test_case "retained words per channel at N=1k" `Slow
            test_retained_words_per_channel ] );
      ( "fuzz",
        [ QCheck_alcotest.to_alcotest fuzz_arena_vs_boxed ] ) ]
