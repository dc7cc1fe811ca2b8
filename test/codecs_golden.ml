(* Byte golden for every persisted or wire format: prints the hex
   encoding of one seeded value per format — transaction blobs, a tower
   record, a tower snapshot, a channel blob, every Wire message kind
   and every WAL payload kind (watch, unwatch, punish, cursor). The
   output is diffed against codecs.expected by the @codecs alias, so a
   codec rewrite that moves a single byte fails the build. *)

module Tx = Daric_tx.Tx
module Txcodec = Daric_tx.Txcodec
module Script = Daric_script.Script
module Ledger = Daric_chain.Ledger
module Keys = Daric_core.Keys
module Party = Daric_core.Party
module Driver = Daric_core.Driver
module Watchtower = Daric_core.Watchtower
module Persist = Daric_core.Persist
module Durable = Daric_core.Durable
module Wire = Daric_core.Wire
module Wal = Daric_util.Wal
module Rng = Daric_util.Rng
module Hex = Daric_util.Hex
module I = Daric_schemes.Scheme_intf
module DS = Daric_schemes.Daric_scheme

let line name bytes = Printf.printf "%s %s\n" name (Hex.encode bytes)

let ok = function Ok v -> v | Error e -> failwith (Persist.error_to_string e)

(* Three channels on one ledger, each updated once. *)
let world ~seed =
  let env = I.make_env ~delta:1 ~seed () in
  let chans =
    Array.init 3 (fun k ->
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
      match DS.Scheme.update s ~bal_a:(500_000 + k + 17) ~bal_b:(500_000 - k - 17) with
      | Ok () -> ()
      | Error e -> failwith (I.error_to_string e))
    chans;
  (env, chans)

(* Every spk kind and every script-op kind, opcode table included. *)
let synthetic_tx =
  let ops =
    Script.
      [ Push "\x01\x02"; Num 70_000; Small 3; If; Notif; Else; Endif; Verify;
        Return; Dup; Drop; Swap; Size; Equal; Equalverify; Hash160; Hash256;
        Sha256; Ripemd160; Checksig; Checksigverify; Checkmultisig;
        Checkmultisigverify; Cltv; Csv ]
  in
  Tx.make ~locktime:500_001
    ~inputs:
      [ { Tx.prevout = { Tx.txid = String.make 32 'a'; vout = 1 }; sequence = 0xfffffffe };
        { Tx.prevout = { Tx.txid = String.make 32 'b'; vout = 300 }; sequence = 7 } ]
    ~outputs:
      [ { Tx.value = 1; spk = Tx.P2wsh (String.make 32 'h') };
        { Tx.value = 0x1_0000_0000; spk = Tx.P2wpkh (String.make 20 'k') };
        { Tx.value = 0; spk = Tx.Op_return } ]
    ~witnesses:[ [ Tx.Data "sig"; Tx.Wscript ops ]; [] ]
    ()

let txs () =
  line "tx.synthetic" (Txcodec.encode_tx synthetic_tx);
  let d = Driver.create ~delta:1 ~seed:67 () in
  let alice = Party.create ~pid:"alice" ~seed:68 () in
  let bob = Party.create ~pid:"bob" ~seed:69 () in
  Driver.add_party d alice;
  Driver.add_party d bob;
  Driver.open_channel d ~id:"c" ~alice ~bob ~bal_a:60_000 ~bal_b:40_000 ();
  assert (Driver.run_until_operational d ~id:"c" ~alice ~bob);
  let old_commit = Option.get (Party.chan_exn bob "c").Party.commit_mine in
  let pk_a, pk_b = Party.main_pks (Party.chan_exn alice "c") in
  let theta = Daric_core.Txs.balance_state ~pk_a ~pk_b ~bal_a:55_000 ~bal_b:45_000 in
  assert (Driver.update_channel d ~id:"c" ~initiator:alice ~responder:bob ~theta);
  line "chan" (ok (Persist.encode_chan (Party.chan_exn alice "c")));
  Driver.corrupt d "bob";
  Driver.adversary_post d old_commit;
  Driver.run d 6;
  List.iteri
    (fun k (_, tx) -> line (Printf.sprintf "tx.chain.%d" k) (Txcodec.encode_tx tx))
    (Ledger.accepted (Driver.ledger d))

let wires () =
  let rng = Rng.create ~seed:3 in
  let keys = Keys.pub (Keys.generate rng) in
  let sig73 = Rng.bytes rng 73 in
  let tid = { Tx.txid = Rng.bytes rng 32; vout = 2 } in
  let theta =
    [ { Tx.value = 40_000; spk = Tx.P2wpkh (Rng.bytes rng 20) };
      { Tx.value = 60_000; spk = Tx.P2wsh (Rng.bytes rng 32) };
      { Tx.value = 0; spk = Tx.Op_return } ]
  in
  List.iter
    (fun m -> line ("wire." ^ Wire.kind m) (Wire.encode m))
    [ Wire.Create_info { id = "chan-9"; tid; keys };
      Wire.Create_com { id = "c"; split_sig = sig73; commit_sig = sig73 };
      Wire.Create_fund { id = "c"; fund_sig = sig73 };
      Wire.Update_req { id = "c"; theta; tstp = 3 };
      Wire.Update_info { id = "c"; split_sig = sig73 };
      Wire.Update_com_initiator { id = "c"; split_sig = sig73; commit_sig = sig73 };
      Wire.Update_com_responder { id = "c"; commit_sig = sig73 };
      Wire.Revoke_initiator { id = "c"; rev_sig = sig73 };
      Wire.Revoke_responder { id = "c"; rev_sig = sig73 };
      Wire.Close_req { id = "c"; fin_sig = sig73 };
      Wire.Close_ack { id = "c"; fin_sig = sig73 } ]

(* A durable tower over three channels: one punished, one unwatched,
   the cursor advanced; then every WAL payload it journaled, the
   snapshot it takes, and one record. *)
let tower () =
  let env, chans = world ~seed:53 in
  let records = Array.map (fun s -> Option.get (DS.watch_record s)) chans in
  line "record" (Watchtower.encode_record records.(0));
  let store = Durable.memory_store () in
  let d = Durable.create ~snapshot_every:1000 ~wid:"golden" store in
  Array.iter (fun r -> assert (Durable.watch d r)) records;
  DS.publish_revoked chans.(1);
  let post tx = Ledger.post env.ledger tx ~delay:0 in
  for _ = 1 to 2 do
    I.settle env 1;
    Durable.end_of_round d ~round:(Ledger.height env.ledger) ~ledger:env.ledger ~post
  done;
  Durable.unwatch d ~channel_id:"c2";
  assert (Durable.watch d records.(2));
  (match Wal.decode (Wal.Sink.contents store.Durable.wal_sink) with
  | Ok (wal, Wal.Complete) ->
      List.iteri
        (fun k (w : Wal.record) ->
          line (Printf.sprintf "wal.%d.kind%d" k w.Wal.kind) w.Wal.payload)
        wal
  | _ -> failwith "wal");
  line "snapshot" (Persist.encode_tower (Durable.tower d))

let () =
  txs ();
  wires ();
  tower ()
