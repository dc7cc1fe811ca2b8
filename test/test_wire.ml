(* Wire-format tests: canonical encoding roundtrips for every protocol
   message, tamper rejection, and the per-update communication cost. *)

module Tx = Daric_tx.Tx
module Wire = Daric_core.Wire
module Keys = Daric_core.Keys
module Party = Daric_core.Party
module Driver = Daric_core.Driver
module Rng = Daric_util.Rng

let check_b = Alcotest.(check bool)

let sample_messages = Wire_samples.messages

let test_roundtrip () =
  List.iter
    (fun m ->
      match Wire.decode (Wire.encode m) with
      | Some m' -> check_b (Wire.kind m ^ " roundtrips") true (m = m')
      | None -> Alcotest.fail ("decode failed for " ^ Wire.kind m))
    (sample_messages ())

let test_tamper_rejected () =
  List.iter
    (fun m ->
      let enc = Wire.encode m in
      (* truncation must be detected *)
      check_b (Wire.kind m ^ " truncated rejected") true
        (Wire.decode (String.sub enc 0 (String.length enc - 1))
         <> Some m);
      (* trailing garbage must be detected *)
      check_b (Wire.kind m ^ " padded rejected") true
        (Wire.decode (enc ^ "x") = None))
    (sample_messages ())

(* Canonical decoding: of all the single-byte mutations of each sample
   message, every one that [decode] accepts re-encodes to exactly the
   mutated bytes. An encoding that decodes but does not round-trip
   (say, an output value with the u64's top bit set) fails. *)
let test_mutations_canonical () =
  List.iter
    (fun m ->
      let enc = Wire.encode m in
      for pos = 0 to String.length enc - 1 do
        for v = 0 to 255 do
          if v <> Char.code enc.[pos] then begin
            let b = Bytes.of_string enc in
            Bytes.set b pos (Char.chr v);
            let mutated = Bytes.to_string b in
            match Wire.decode mutated with
            | Some m' when not (String.equal (Wire.encode m') mutated) ->
                Alcotest.failf "%s: byte %d := 0x%02x decodes but does not re-encode"
                  (Wire.kind m) pos v
            | Some _ | None -> ()
          end
        done
      done)
    (sample_messages ())

let test_bad_tag () =
  check_b "unknown tag" true (Wire.decode "\xff\x01c" = None);
  check_b "empty" true (Wire.decode "" = None)

(* Per-update communication: the 4-message update exchange is a few
   hundred bytes, independent of the state number. *)
let test_update_communication_cost () =
  let d = Driver.create ~delta:1 ~seed:8 () in
  let alice = Party.create ~pid:"alice" ~seed:1 () in
  let bob = Party.create ~pid:"bob" ~seed:2 () in
  Driver.add_party d alice;
  Driver.add_party d bob;
  Driver.open_channel d ~id:"c" ~alice ~bob ~bal_a:50_000 ~bal_b:50_000 ();
  assert (Driver.run_until_operational d ~id:"c" ~alice ~bob);
  let c = Party.chan_exn alice "c" in
  let pk_a, pk_b = Party.main_pks c in
  let measure k =
    let before = Driver.bytes_sent d in
    let theta =
      Daric_core.Txs.balance_state ~pk_a ~pk_b ~bal_a:(50_000 - k)
        ~bal_b:(50_000 + k)
    in
    assert (Driver.update_channel d ~id:"c" ~initiator:alice ~responder:bob ~theta);
    Driver.bytes_sent d - before
  in
  let c1 = measure 1 in
  let c100 = measure 100 in
  check_b "update costs a few hundred bytes" true (c1 > 200 && c1 < 2_000);
  check_b "cost independent of state number" true (c1 = c100);
  Alcotest.(check int) "six messages per update" 6
    (let before = Driver.messages_sent d in
     let theta =
       Daric_core.Txs.balance_state ~pk_a ~pk_b ~bal_a:49_000 ~bal_b:51_000
     in
     assert (Driver.update_channel d ~id:"c" ~initiator:alice ~responder:bob ~theta);
     Driver.messages_sent d - before)

let prop_roundtrip_update_req =
  QCheck.Test.make ~name:"updateReq roundtrips for arbitrary states" ~count:100
    QCheck.(pair (list (pair (int_bound 1_000_000) (int_bound 1))) small_nat)
    (fun (outs, tstp) ->
      let theta =
        List.map
          (fun (v, kind) ->
            { Tx.value = v;
              spk =
                (if kind = 0 then Tx.P2wpkh (String.make 20 'h')
                 else Tx.P2wsh (String.make 32 'H')) })
          outs
      in
      let m = Wire.Update_req { id = "x"; theta; tstp } in
      Wire.decode (Wire.encode m) = Some m)

let () =
  Alcotest.run "daric-wire"
    [ ( "wire",
        [ Alcotest.test_case "roundtrip" `Quick test_roundtrip;
          Alcotest.test_case "tamper rejected" `Quick test_tamper_rejected;
          Alcotest.test_case "bad tag" `Quick test_bad_tag;
          Alcotest.test_case "update communication cost" `Quick
            test_update_communication_cost;
          QCheck_alcotest.to_alcotest prop_roundtrip_update_req;
          Alcotest.test_case "mutations decode canonically" `Quick
            test_mutations_canonical ] ) ]
