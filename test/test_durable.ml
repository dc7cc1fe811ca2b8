(* Durability tests.

   The central differential: a durable tower killed at EVERY round
   boundary of a 100-round fraud trace and recovered from its store
   must end with exactly the punished set, guarded set, storage bytes
   and on-chain event stream of the tower that never crashed. Plus:
   N-tower replication with any R-1 replicas crashed still punishes
   every fraud, the tower snapshot codec round-trips, a file-backed
   store survives a real process-level drop of the handle, and the WAL
   framing is fuzzed — random record sequences round-trip, and any
   single-byte corruption or tail truncation yields an error or a
   strict prefix, never a mis-replay. One property runs over every
   codec (tx blob, tower record, tower snapshot, channel blob, wire
   message, cursor payload): arbitrary and single-byte-mutated bytes
   are rejected or decoded, never raise, and accepted bytes re-encode
   to themselves (a snapshot up to record order). A cursor that does
   not fit a non-negative int is refused in a snapshot and in the WAL;
   a restored snapshot re-encodes to itself, and a WAL replay installs
   each replayed payload as it is. *)

module Tx = Daric_tx.Tx
module Ledger = Daric_chain.Ledger
module Watchtower = Daric_core.Watchtower
module Persist = Daric_core.Persist
module Durable = Daric_core.Durable
module Towerset = Daric_core.Towerset
module Wal = Daric_util.Wal
module C = Daric_util.Codec
module Wire = Daric_core.Wire
module Txcodec = Daric_tx.Txcodec
module Party = Daric_core.Party
module Driver = Daric_core.Driver
module I = Daric_schemes.Scheme_intf
module DS = Daric_schemes.Daric_scheme

let check_b = Alcotest.(check bool)
let check_i = Alcotest.(check int)

let fail_persist e = Alcotest.fail (Persist.error_to_string e)

(* ---- world builder: N channels on one ledger, all updated ---- *)

let build_world ~channels ~updates ~seed =
  let env = I.make_env ~delta:1 ~seed () in
  let chans =
    Array.init channels (fun k ->
        let cfg =
          { I.default_config with
            chan_id = Printf.sprintf "c%d" k;
            party_seed = 1000 + (2 * k);
            bal_a = 500_000 + k;
            bal_b = 500_000 - k }
        in
        match DS.Scheme.open_channel env cfg with
        | Ok s -> s
        | Error e -> failwith (I.error_to_string e))
  in
  Array.iteri
    (fun k s ->
      for u = 1 to updates do
        match
          DS.Scheme.update s ~bal_a:(500_000 + k + (u * 17))
            ~bal_b:(500_000 - k - (u * 17))
        with
        | Ok () -> ()
        | Error e -> failwith (I.error_to_string e)
      done)
    chans;
  (env, chans)

(* ---- crash-at-every-round-boundary differential ---- *)

(* One 100-round trace: six frauds spread over the run, one channel
   collaboratively un-watched halfway. [crash] drops the tower's RAM
   after every round and recovers it from the store before the next.
   Returns every observable the acceptance cares about. *)
let run_trace ~crash () =
  let channels = 12 and updates = 2 and rounds = 100 in
  let frauds = [ (10, 6); (25, 7); (40, 8); (55, 9); (70, 10); (85, 11) ] in
  let env, chans = build_world ~channels ~updates ~seed:42 in
  let store = Durable.memory_store () in
  let t = ref (Durable.create ~snapshot_every:4 ~wid:"t" store) in
  Array.iter
    (fun s ->
      match DS.watch_record s with
      | Some r ->
          if not (Durable.watch !t r) then
            Alcotest.fail "tower rejected a valid record"
      | None -> Alcotest.fail "no record after update")
    chans;
  let post tx = Ledger.post env.ledger tx ~delay:0 in
  let max_replayed = ref 0 in
  let recoveries_with_snapshot = ref 0 in
  for round = 1 to rounds do
    (match List.assoc_opt round frauds with
    | Some k -> DS.publish_revoked chans.(k)
    | None -> ());
    if round = 50 then Durable.unwatch !t ~channel_id:"c0";
    I.settle env 1;
    Durable.end_of_round !t ~round:(Ledger.height env.ledger)
      ~ledger:env.ledger ~post;
    (* fixed-round snapshots (the cadence counter restarts with every
       recovered handle, so the crash run would otherwise never reach
       it): recoveries after round 30 exercise snapshot + WAL replay *)
    if round = 30 || round = 60 then Durable.snapshot !t;
    if crash then begin
      match Durable.recover ~snapshot_every:4 ~wid:"t" store with
      | Ok r ->
          t := r.Durable.t;
          max_replayed := max !max_replayed r.Durable.replayed;
          if r.Durable.had_snapshot then incr recoveries_with_snapshot
      | Error e -> fail_persist e
    end
  done;
  (* let the last revocation confirm, then settle the punished list *)
  I.settle env 1;
  Durable.end_of_round !t ~round:(Ledger.height env.ledger) ~ledger:env.ledger
    ~post;
  let tw = Durable.tower !t in
  let trace =
    ( Watchtower.punished tw,
      Watchtower.guarded_count tw,
      Watchtower.storage_bytes tw,
      Ledger.height env.ledger,
      List.map (fun (r, tx) -> (r, Tx.txid tx)) (Ledger.accepted env.ledger) )
  in
  (trace, !max_replayed, !recoveries_with_snapshot)

let test_crash_every_round_differential () =
  let reference, _, _ = run_trace ~crash:false () in
  let crashed, max_replayed, with_snapshot = run_trace ~crash:true () in
  let punished, guarded, bytes, height, _ = reference in
  check_i "six frauds punished" 6 (List.length punished);
  (* punish reclaims a channel's record, so the 6 punished channels no
     longer count as guarded, nor does unwatched c0 *)
  check_i "c0 unwatched, punished reclaimed, rest guarded" (12 - 1 - 6) guarded;
  check_b "crashed trace identical to uninterrupted" true
    (crashed = reference);
  check_b "recovery actually replayed WAL records" true (max_replayed > 0);
  check_b "recovery actually loaded a snapshot" true (with_snapshot > 0);
  ignore (bytes, height)

(* ---- N-tower replication: any one honest replica suffices ---- *)

let run_replicated ~live () =
  let channels = 8 and rounds = 20 in
  let frauds = [ (5, 4); (8, 5); (11, 6); (14, 7) ] in
  let env, chans = build_world ~channels ~updates:1 ~seed:17 in
  let faults ~round:_ ~replica = if replica = live then `Up else `Down in
  let ts = Towerset.create ~snapshot_every:4 ~faults ~wid:"ts" 3 in
  let round0 = Ledger.height env.ledger in
  Array.iter
    (fun s ->
      match DS.watch_record s with
      | Some r ->
          if not (Towerset.watch ts ~round:round0 r) then
            Alcotest.fail "every replica rejected a valid record"
      | None -> Alcotest.fail "no record after update")
    chans;
  let post tx = Ledger.post env.ledger tx ~delay:0 in
  for round = 1 to rounds do
    (match List.assoc_opt round frauds with
    | Some k -> DS.publish_revoked chans.(k)
    | None -> ());
    I.settle env 1;
    Towerset.end_of_round ts ~round:(Ledger.height env.ledger)
      ~ledger:env.ledger ~post
  done;
  I.settle env 1;
  Towerset.end_of_round ts ~round:(Ledger.height env.ledger)
    ~ledger:env.ledger ~post;
  ts

let test_two_of_three_crashed () =
  (* whichever single replica survives, all frauds are punished *)
  List.iter
    (fun live ->
      let ts = run_replicated ~live () in
      check_i
        (Printf.sprintf "all frauds punished with only replica %d up" live)
        4
        (List.length (Towerset.punished ts));
      List.iter
        (fun (s : Towerset.score) ->
          if s.s_idx = live then begin
            check_b "survivor served every round" true (s.s_liveness = 1.0);
            check_i "survivor punished all" 4 s.s_punished
          end
          else begin
            check_i "crashed replica served nothing" 0 s.s_rounds_served;
            check_b "crashed replica is down" true (not s.s_alive)
          end)
        (Towerset.scorecard ts))
    [ 0; 1; 2 ]

(* ---- tower snapshot codec round-trips ---- *)

let test_tower_snapshot_roundtrip () =
  let ts = run_replicated ~live:0 () in
  match
    List.find_map
      (fun (s : Towerset.score) -> if s.s_alive then Some s.s_idx else None)
      (Towerset.scorecard ts)
  with
  | None -> Alcotest.fail "no live replica"
  | Some _ ->
      (* rebuild a plain tower through the codec and compare *)
      let env, chans = build_world ~channels:5 ~updates:1 ~seed:23 in
      let tw = Watchtower.create ~wid:"codec" () in
      Array.iter
        (fun s ->
          match DS.watch_record s with
          | Some r -> ignore (Watchtower.watch tw r)
          | None -> ())
        chans;
      DS.publish_revoked chans.(3);
      I.settle env 1;
      let post tx = Ledger.post env.ledger tx ~delay:0 in
      Watchtower.end_of_round tw ~round:(Ledger.height env.ledger)
        ~ledger:env.ledger ~post;
      I.settle env 1;
      Watchtower.end_of_round tw ~round:(Ledger.height env.ledger)
        ~ledger:env.ledger ~post;
      let blob = Persist.encode_tower tw in
      (match Persist.restore_tower blob with
      | Error e -> fail_persist e
      | Ok tw' ->
          check_b "wid" true (Watchtower.wid tw' = Watchtower.wid tw);
          check_i "guarded" (Watchtower.guarded_count tw)
            (Watchtower.guarded_count tw');
          check_b "punished" true
            (Watchtower.punished tw' = Watchtower.punished tw);
          check_i "cursor" (Watchtower.cursor tw) (Watchtower.cursor tw');
          check_i "storage bytes" (Watchtower.storage_bytes tw)
            (Watchtower.storage_bytes tw'));
      (* corrupted snapshots are rejected, not half-restored *)
      check_b "truncated snapshot rejected" true
        (Persist.restore_tower (String.sub blob 0 (String.length blob - 2))
        |> Result.is_error);
      check_b "padded snapshot rejected" true
        (Persist.restore_tower (blob ^ "x") |> Result.is_error)

(* ---- file-backed store: drop the handle, re-open from disk ---- *)

let test_file_store_recovery () =
  let path = Filename.temp_file "daric_tower" ".wal" in
  let env, chans = build_world ~channels:4 ~updates:1 ~seed:31 in
  let post tx = Ledger.post env.ledger tx ~delay:0 in
  let store = Durable.file_store path in
  let t = Durable.create ~snapshot_every:50 ~wid:"disk" store in
  Array.iter
    (fun s ->
      match DS.watch_record s with
      | Some r -> ignore (Durable.watch t r)
      | None -> ())
    chans;
  for round = 1 to 12 do
    if round = 6 then DS.publish_revoked chans.(2);
    I.settle env 1;
    Durable.end_of_round t ~round:(Ledger.height env.ledger) ~ledger:env.ledger
      ~post
  done;
  (* snapshot_every:50 means nothing snapshotted — recovery must come
     entirely from the on-disk WAL; drop the handle and re-open *)
  let store2 = Durable.file_store path in
  (match Durable.recover ~snapshot_every:50 ~wid:"disk" store2 with
  | Error e -> fail_persist e
  | Ok r ->
      check_b "no snapshot was taken" true (not r.Durable.had_snapshot);
      check_b "WAL records replayed from disk" true (r.Durable.replayed > 0);
      let tw = Durable.tower r.Durable.t in
      check_i "guarded restored from disk (punish reclaimed one)" 3
        (Watchtower.guarded_count tw);
      check_i "punishment restored from disk" 1
        (List.length (Watchtower.punished tw)));
  Sys.remove path;
  if Sys.file_exists (path ^ ".snap") then Sys.remove (path ^ ".snap")

(* ---- WAL framing fuzz ---- *)

let gen_records =
  QCheck.Gen.(
    list_size (int_range 1 24)
      (map2
         (fun kind payload -> { Wal.kind; payload })
         (int_range 0 255)
         (map Bytes.to_string (bytes_size (int_range 0 120)))))

let arb_records =
  QCheck.make gen_records
    ~print:(fun rs ->
      String.concat ";"
        (List.map
           (fun (r : Wal.record) ->
             Printf.sprintf "k%d/%dB" r.Wal.kind (String.length r.Wal.payload))
           rs))

let encode_log (records : Wal.record list) : string =
  let sink = Wal.Sink.memory () in
  (match Wal.attach sink with
  | Ok (w, [], Wal.Complete) ->
      List.iter (fun (r : Wal.record) -> Wal.append w ~kind:r.Wal.kind r.Wal.payload) records
  | Ok _ -> Alcotest.fail "fresh sink not empty"
  | Error e -> Alcotest.fail (Wal.error_to_string e));
  Wal.Sink.contents sink

let is_prefix ~(of_ : Wal.record list) (rs : Wal.record list) : bool =
  let rec go a b =
    match (a, b) with
    | [], _ -> true
    | x :: a', y :: b' -> x = y && go a' b'
    | _ :: _, [] -> false
  in
  go rs of_

let fuzz_roundtrip =
  QCheck.Test.make ~count:200 ~name:"wal roundtrip" arb_records (fun records ->
      match Wal.decode (encode_log records) with
      | Ok (rs, Wal.Complete) -> rs = records
      | _ -> false)

let fuzz_corruption =
  (* flipping any single byte of a complete log is detected: decode
     yields an error or a strict prefix, never a full mis-replay *)
  QCheck.Test.make ~count:300 ~name:"wal single-byte corruption"
    QCheck.(pair arb_records (pair small_nat small_nat))
    (fun (records, (pos_seed, delta_seed)) ->
      let log = encode_log records in
      QCheck.assume (String.length log > 0);
      let pos = pos_seed mod String.length log in
      let delta = 1 + (delta_seed mod 255) in
      let b = Bytes.of_string log in
      Bytes.set b pos
        (Char.chr ((Char.code (Bytes.get b pos) + delta) land 0xff));
      match Wal.decode (Bytes.to_string b) with
      | Error _ -> true
      | Ok (rs, _) ->
          List.length rs < List.length records && is_prefix ~of_:records rs)

let fuzz_truncation =
  (* cutting the log anywhere yields a clean prefix — torn tails are
     truncation damage, recoverable, and never read as corruption *)
  QCheck.Test.make ~count:300 ~name:"wal tail truncation"
    QCheck.(pair arb_records small_nat)
    (fun (records, cut_seed) ->
      let log = encode_log records in
      QCheck.assume (String.length log > 0);
      let cut = cut_seed mod String.length log in
      match Wal.decode (String.sub log 0 cut) with
      | Error _ -> false
      | Ok (rs, _) ->
          List.length rs < List.length records && is_prefix ~of_:records rs)

let fuzz_attach_truncates =
  (* attach over a torn sink truncates in place and stays appendable *)
  QCheck.Test.make ~count:100 ~name:"wal attach repairs torn tail"
    QCheck.(pair arb_records small_nat)
    (fun (records, cut_seed) ->
      let log = encode_log records in
      QCheck.assume (String.length log > 0);
      let cut = cut_seed mod String.length log in
      let sink = Wal.Sink.memory () in
      Wal.Sink.append sink (String.sub log 0 cut);
      match Wal.attach sink with
      | Error _ -> false
      | Ok (w, rs, _) ->
          Wal.append w ~kind:7 "after-repair";
          (match Wal.decode (Wal.Sink.contents sink) with
          | Ok (rs', Wal.Complete) ->
              rs' = rs @ [ { Wal.kind = 7; payload = "after-repair" } ]
          | _ -> false))


(* ---- decoders on a trust boundary never raise ---- *)

let ffs = String.make 9 '\xff'

(* Snapshot bytes up to and including the wid: an empty tower's
   snapshot minus its three empty counts (records, punished, fresh)
   and its 8-byte cursor. *)
let tower_prefix =
  let e = Persist.encode_tower (Watchtower.create ~wid:"t" ()) in
  String.sub e 0 (String.length e - 11)

let decode_record = C.decode Watchtower.record_codec

(* A 0xff varint prefix with all-ones value used to decode as -1 and
   make [String.sub]/[List.init] raise [Invalid_argument]. *)
let test_negative_lengths () =
  check_b "record: negative id length" true
    (Result.is_error (decode_record ffs));
  check_b "snapshot: negative record count" true
    (Result.is_error (Persist.restore_tower (tower_prefix ^ ffs)));
  check_b "snapshot: negative punished count" true
    (Result.is_error (Persist.restore_tower (tower_prefix ^ "\x00" ^ ffs)));
  check_b "wire: negative id length" true (Wire.decode ("\x01" ^ ffs) = None)

(* A cursor is a non-negative u64: one with bit 63 set, or with bit 62
   set (past [max_int]), is refused — in a snapshot and in a journaled
   cursor payload alike — instead of restoring a truncated value. *)
let bad_cursors =
  [ "\x05\x00\x00\x00\x00\x00\x00\x80"; "\x05\x00\x00\x00\x00\x00\x00\x40" ]

let test_cursor_snapshot () =
  let tw = Watchtower.create ~wid:"t" () in
  Watchtower.set_cursor tw 5;
  let blob = Persist.encode_tower tw in
  let body = String.sub blob 0 (String.length blob - 8) in
  check_b "cursor 5 restores" true
    (match Persist.restore_tower blob with
    | Ok t -> Watchtower.cursor t = 5
    | Error _ -> false);
  List.iter
    (fun c ->
      check_b "out-of-range snapshot cursor refused" true
        (Result.is_error (Persist.restore_tower (body ^ c))))
    bad_cursors

let test_cursor_payload () =
  List.iter
    (fun c ->
      let store = Durable.memory_store () in
      (match Wal.attach store.Durable.wal_sink with
      | Ok (w, _, _) -> Wal.append w ~kind:4 c
      | Error e -> Alcotest.fail (Wal.error_to_string e));
      check_b "out-of-range journaled cursor refused" true
        (Result.is_error (Durable.recover ~wid:"t" store)))
    bad_cursors

(* World records, the snapshot of a tower holding them with one
   punished channel, and wire messages built from them: the seeds the
   mutation fuzzers corrupt. *)
let fixtures =
  lazy
    (let env, chans = build_world ~channels:3 ~updates:1 ~seed:53 in
     let records = Array.to_list (Array.map (fun s -> Option.get (DS.watch_record s)) chans) in
     let tw = Watchtower.create ~wid:"fx" () in
     List.iter (fun r -> ignore (Watchtower.watch tw r)) records;
     DS.publish_revoked chans.(1);
     let post tx = Ledger.post env.ledger tx ~delay:0 in
     for _ = 1 to 2 do
       I.settle env 1;
       Watchtower.end_of_round tw ~round:(Ledger.height env.ledger)
         ~ledger:env.ledger ~post
     done;
     let r = List.hd records in
     let id = r.Watchtower.channel_id in
     let wires =
       List.map Wire.encode
         [ Wire.Create_info { id; tid = r.Watchtower.funding; keys = r.Watchtower.keys_a };
           Wire.Create_com { id; split_sig = r.Watchtower.sig_a; commit_sig = r.Watchtower.sig_b };
           Wire.Update_req { id; theta = r.Watchtower.rev_body.Tx.outputs; tstp = 7 };
           Wire.Revoke_responder { id; rev_sig = r.Watchtower.sig_a };
           Wire.Close_ack { id; fin_sig = r.Watchtower.sig_b } ]
     in
     (List.map Watchtower.encode_record records, Persist.encode_tower tw, wires))

let test_canonical_only () =
  let records, _, _ = Lazy.force fixtures in
  let blob = List.hd records in
  (* the role byte follows id, txid, vout, two key bundles and three
     u32 parameters *)
  let id_len = Char.code blob.[0] in
  let txid_len = Char.code blob.[1 + id_len] in
  let role_at = 1 + id_len + 1 + txid_len + 4 + 32 + 12 in
  check_b "role byte located" true
    (blob.[role_at] = '\x00' || blob.[role_at] = '\x01');
  let b = Bytes.of_string blob in
  Bytes.set b role_at '\x02';
  check_b "role byte 2 rejected" true
    (Result.is_error (decode_record (Bytes.to_string b)));
  (* the same id length, spelt as a 3-byte varint *)
  let long_len =
    "\xfd" ^ String.make 1 (Char.chr id_len) ^ "\x00"
    ^ String.sub blob 1 (String.length blob - 1)
  in
  check_b "non-minimal varint rejected" true
    (Result.is_error (decode_record long_len))

(* A quiescent Daric channel blob after one update: the seed the
   channel-restore fuzzers corrupt. *)
let chan_blob =
  lazy
    (let d = Driver.create ~delta:1 ~seed:61 () in
     let alice = Party.create ~pid:"alice" ~seed:62 () in
     let bob = Party.create ~pid:"bob" ~seed:63 () in
     Driver.add_party d alice;
     Driver.add_party d bob;
     Driver.open_channel d ~id:"c" ~alice ~bob ~bal_a:60_000 ~bal_b:40_000 ();
     assert (Driver.run_until_operational d ~id:"c" ~alice ~bob);
     let pk_a, pk_b = Party.main_pks (Party.chan_exn alice "c") in
     let theta =
       Daric_core.Txs.balance_state ~pk_a ~pk_b ~bal_a:55_000 ~bal_b:45_000
     in
     assert (Driver.update_channel d ~id:"c" ~initiator:alice ~responder:bob ~theta);
     match Persist.encode_chan (Party.chan_exn alice "c") with
     | Ok blob -> blob
     | Error e -> failwith (Persist.error_to_string e))

(* Every transaction a punished Daric channel put on chain — funding,
   the revoked commit (2-of-2 funding-script witness) and the
   revocation (commit-script witness) — encoded standalone: the seeds
   the tx-blob fuzzers corrupt. *)
let tx_blobs =
  lazy
    (let d = Driver.create ~delta:1 ~seed:67 () in
     let alice = Party.create ~pid:"alice" ~seed:68 () in
     let bob = Party.create ~pid:"bob" ~seed:69 () in
     Driver.add_party d alice;
     Driver.add_party d bob;
     Driver.open_channel d ~id:"c" ~alice ~bob ~bal_a:60_000 ~bal_b:40_000 ();
     assert (Driver.run_until_operational d ~id:"c" ~alice ~bob);
     let old_commit = Option.get (Party.chan_exn bob "c").Party.commit_mine in
     let pk_a, pk_b = Party.main_pks (Party.chan_exn alice "c") in
     let theta =
       Daric_core.Txs.balance_state ~pk_a ~pk_b ~bal_a:55_000 ~bal_b:45_000
     in
     assert (Driver.update_channel d ~id:"c" ~initiator:alice ~responder:bob ~theta);
     Driver.corrupt d "bob";
     Driver.adversary_post d old_commit;
     Driver.run d 6;
     assert (Driver.saw_event alice (function Party.Punished _ -> true | _ -> false));
     List.map (fun (_, tx) -> Txcodec.encode_tx tx) (Ledger.accepted (Driver.ledger d)))

let test_tx_fixtures () =
  let txs =
    List.map (fun b -> Result.get_ok (Txcodec.decode_tx b)) (Lazy.force tx_blobs)
  in
  check_b "funding, commit and revocation on chain" true (List.length txs >= 3);
  check_b "script witnesses among the seeds" true
    (List.exists
       (fun (tx : Tx.t) ->
         List.exists (List.exists (function Tx.Wscript _ -> true | _ -> false))
           tx.Tx.witnesses)
       txs)

(* A snapshot split into its wid, its record spans and the rest:
   record order follows hash-table history, not logical state, so
   snapshots compare with their spans as a sorted list (the cursor and
   everything else exactly). *)
let snapshot_parts =
  C.triple C.var_string
    (C.list
       (C.spanned Watchtower.record_codec
          (fun _ { C.src; off; len } -> String.sub src off len)
          (fun b -> { C.src = b; off = 0; len = String.length b })))
    (C.triple (C.list C.var_string) (C.list C.var_string) C.u64)

let split_snapshot (blob : string) =
  match C.decode ~off:(String.length tower_prefix - 2) snapshot_parts blob with
  | Ok (wid, spans, rest) -> Some (wid, List.sort String.compare spans, rest)
  | Error _ -> None

(* ---- one property over every codec ---- *)

(* A codec under test: seeds, a header that arbitrary inputs may carry
   so they get past the magic, the re-encoding of what the decoder
   accepts ([None] when it refuses), and the equality accepted bytes
   must have with their re-encoding. *)
type codec_case = {
  name : string;
  seeds : string list Lazy.t;
  head : string Lazy.t;
  reencode : string -> string option;
  same : string -> string -> bool;
}

let of_result enc = function Ok v -> Some (enc v) | Error _ -> None

let codec_cases =
  let records = lazy (let r, _, _ = Lazy.force fixtures in r) in
  [ { name = "tx"; seeds = tx_blobs; head = lazy "";
      reencode = (fun b -> of_result Txcodec.encode_tx (Txcodec.decode_tx b));
      same = String.equal };
    { name = "tower record"; seeds = records; head = lazy "";
      reencode = (fun b -> of_result Watchtower.encode_record (decode_record b));
      same = String.equal };
    { name = "tower snapshot";
      seeds = lazy (let _, s, _ = Lazy.force fixtures in [ s ]);
      head = lazy tower_prefix;
      reencode = (fun b -> of_result Persist.encode_tower (Persist.restore_tower b));
      same = (fun a b -> split_snapshot a = split_snapshot b) };
    { name = "channel blob";
      seeds = lazy [ Lazy.force chan_blob ];
      head = lazy (String.sub (Lazy.force chan_blob) 0 8);
      reencode =
        (fun b ->
          let p = Party.create ~pid:"fz" ~seed:1 () in
          match (Persist.restore_chan p b, p.Party.chans) with
          | Ok (), [ (_, c) ] -> Some (Result.get_ok (Persist.encode_chan c))
          | Ok (), _ -> Some ""
          | Error _, _ -> None);
      same = String.equal };
    { name = "wire";
      seeds =
        lazy
          ((let _, _, w = Lazy.force fixtures in w)
          @ List.map Wire.encode (Wire_samples.messages ()));
      head = lazy "";
      reencode = (fun b -> Option.map Wire.encode (Wire.decode b));
      same = String.equal };
    { name = "cursor payload";
      seeds = lazy (List.map (C.encode C.u64) [ 0; 5; 1 lsl 40; max_int ]);
      head = lazy "";
      reencode = (fun b -> of_result (C.encode C.u64) (C.decode C.u64 b));
      same = String.equal } ]

let mutate (blob : string) (pos_seed : int) (delta_seed : int) : string =
  let pos = pos_seed mod String.length blob in
  let b = Bytes.of_string blob in
  Bytes.set b pos
    (Char.chr ((Char.code (Bytes.get b pos) + 1 + (delta_seed mod 255)) land 0xff));
  Bytes.to_string b

(* Decoding [b] never raises, and bytes it accepts re-encode to
   themselves. *)
let canonical (k : codec_case) (b : string) : bool =
  match k.reencode b with
  | None -> true
  | Some b' ->
      k.same b b'
      || QCheck.Test.fail_reportf "%s: accepted bytes re-encode differently" k.name
  | exception e -> QCheck.Test.fail_reportf "%s raised %s" k.name (Printexc.to_string e)

(* Each seed is accepted; arbitrary bytes (behind the format's header,
   or bare) and a single-byte mutation of a seed never raise, and what
   decodes re-encodes to itself. *)
let codec_property (k : codec_case) =
  QCheck.Test.make ~count:400 ~name:("codec: " ^ k.name)
    QCheck.(pair (pair string bool) (triple small_nat (int_bound 10_000) small_nat))
    (fun ((junk, headed), (which, pos_seed, delta_seed)) ->
      let seeds = Lazy.force k.seeds in
      List.for_all (fun b -> k.reencode b <> None && canonical k b) seeds
      && canonical k (if headed then Lazy.force k.head ^ junk else junk)
      && canonical k
           (mutate (List.nth seeds (which mod List.length seeds)) pos_seed delta_seed))

(* ---- restore and replay install bytes, not re-encodings ---- *)

type op = Watch of int | Unwatch of int | Update of int | Fraud of int | Poll | Snap

let trace_chans = 4

let show_op = function
  | Watch i -> Printf.sprintf "W%d" i
  | Unwatch i -> Printf.sprintf "U%d" i
  | Update i -> Printf.sprintf "A%d" i
  | Fraud i -> Printf.sprintf "F%d" i
  | Poll -> "P"
  | Snap -> "S"

let arb_ops =
  let chan = QCheck.Gen.int_bound (trace_chans - 1) in
  QCheck.make
    ~print:(fun ops -> String.concat " " (List.map show_op ops))
    QCheck.Gen.(
      list_size (int_range 1 16)
        (frequency
           [ (4, map (fun i -> Watch i) chan);
             (1, map (fun i -> Unwatch i) chan);
             (2, map (fun i -> Update i) chan);
             (1, map (fun i -> Fraud i) chan);
             (2, return Poll);
             (1, return Snap) ]))

(* Run [ops] against a durable tower snapshotting every 3 rounds;
   returns the live tower's handle and its store. *)
let run_ops (ops : op list) =
  let env, chans = build_world ~channels:trace_chans ~updates:1 ~seed:61 in
  let store = Durable.memory_store () in
  let d = Durable.create ~snapshot_every:3 ~wid:"fz" store in
  let post tx = Ledger.post env.ledger tx ~delay:0 in
  let poll () =
    I.settle env 1;
    Durable.end_of_round d ~round:(Ledger.height env.ledger) ~ledger:env.ledger
      ~post
  in
  let frauded = Array.make trace_chans false in
  let updates = Array.make trace_chans 1 in
  List.iter
    (function
      | Watch i -> (
          match DS.watch_record chans.(i) with
          | Some r -> ignore (Durable.watch d r)
          | None -> Alcotest.fail "no watch record")
      | Unwatch i -> Durable.unwatch d ~channel_id:(Printf.sprintf "c%d" i)
      | Update i ->
          if not frauded.(i) then begin
            updates.(i) <- updates.(i) + 1;
            let shift = i + (updates.(i) * 17) in
            match
              DS.Scheme.update chans.(i) ~bal_a:(500_000 + shift)
                ~bal_b:(500_000 - shift)
            with
            | Ok () -> ()
            | Error e -> Alcotest.fail (I.error_to_string e)
          end
      | Fraud i ->
          if not frauded.(i) then begin
            frauded.(i) <- true;
            DS.publish_revoked chans.(i);
            poll ();
            poll ()
          end
      | Poll -> poll ()
      | Snap -> Durable.snapshot d)
    ops;
  (d, store)

let fuzz_snapshot_fixpoint =
  QCheck.Test.make ~count:25 ~name:"encode_tower (restore_tower b) = b"
    arb_ops (fun ops ->
      let d, _ = run_ops ops in
      let b = Persist.encode_tower (Durable.tower d) in
      match Persist.restore_tower b with
      | Error e -> QCheck.Test.fail_reportf "restore: %s" (Persist.error_to_string e)
      | Ok t ->
          let parts = split_snapshot b in
          parts <> None && split_snapshot (Persist.encode_tower t) = parts)

let blobs_by_id (t : Watchtower.t) =
  let acc = ref [] in
  Watchtower.iter_record_blobs t (fun b ->
      match decode_record b with
      | Ok r -> acc := (r.Watchtower.channel_id, b) :: !acc
      | Error e -> Alcotest.fail (C.error_to_string e));
  List.sort compare !acc

let fuzz_replay_installs_payloads =
  QCheck.Test.make ~count:25 ~name:"WAL replay stores each payload as is"
    arb_ops (fun ops ->
      let d, store = run_ops ops in
      match
        ( Durable.recover ~snapshot_every:3 ~wid:"fz" store,
          Wal.decode (Wal.Sink.contents store.Durable.wal_sink) )
      with
      | Error e, _ -> QCheck.Test.fail_reportf "recover: %s" (Persist.error_to_string e)
      | _, Error e -> QCheck.Test.fail_reportf "wal: %s" (Wal.error_to_string e)
      | Ok rc, Ok (wal, _) ->
          let stored = blobs_by_id (Durable.tower rc.Durable.t) in
          (* kind 1 is a journaled watch; keep each channel's last *)
          let last_watch = Hashtbl.create 8 in
          List.iter
            (fun (w : Wal.record) ->
              if w.Wal.kind = 1 then
                match decode_record w.Wal.payload with
                | Ok r -> Hashtbl.replace last_watch r.Watchtower.channel_id w.Wal.payload
                | Error e -> Alcotest.fail (C.error_to_string e))
            wal;
          stored = blobs_by_id (Durable.tower d)
          && Hashtbl.fold
               (fun cid payload ok ->
                 ok
                 &&
                 match List.assoc_opt cid stored with
                 | Some b -> String.equal b payload
                 | None -> true (* unwatched or punished after the watch *))
               last_watch true)

let () =
  Alcotest.run "daric-durable"
    [ ( "durable",
        [ Alcotest.test_case "crash at every round boundary" `Slow
            test_crash_every_round_differential;
          Alcotest.test_case "2 of 3 replicas crashed" `Quick
            test_two_of_three_crashed;
          Alcotest.test_case "tower snapshot roundtrip" `Quick
            test_tower_snapshot_roundtrip;
          Alcotest.test_case "file store recovery" `Quick
            test_file_store_recovery ] );
      ( "wal-fuzz",
        List.map QCheck_alcotest.to_alcotest
          [ fuzz_roundtrip; fuzz_corruption; fuzz_truncation;
            fuzz_attach_truncates ] );
      ( "decode",
        [ Alcotest.test_case "negative lengths are errors" `Quick
            test_negative_lengths;
          Alcotest.test_case "canonical encodings only" `Quick
            test_canonical_only;
          Alcotest.test_case "out-of-range snapshot cursor" `Quick
            test_cursor_snapshot;
          Alcotest.test_case "out-of-range cursor payload" `Quick
            test_cursor_payload;
          Alcotest.test_case "tx blob fuzz seeds" `Quick test_tx_fixtures ]
        @ List.map
            (fun k -> QCheck_alcotest.to_alcotest (codec_property k))
            codec_cases );
      ( "install",
        List.map QCheck_alcotest.to_alcotest
          [ fuzz_snapshot_fixpoint; fuzz_replay_installs_payloads ] ) ]
