(* Soak test: a long-running session exercising the protocol at a
   larger scale than the unit suites. *)

module Tx = Daric_tx.Tx
module Party = Daric_core.Party
module Driver = Daric_core.Driver
module Txs = Daric_core.Txs

let check_b = Alcotest.(check bool)
let check_i = Alcotest.(check int)

(* 200 updates, then a dishonest replay of a mid-life state. *)
let test_long_channel () =
  let d = Driver.create ~delta:1 ~seed:1001 () in
  let alice = Party.create ~pid:"alice" ~seed:1 () in
  let bob = Party.create ~pid:"bob" ~seed:2 () in
  Driver.add_party d alice;
  Driver.add_party d bob;
  Driver.open_channel d ~id:"c" ~alice ~bob ~bal_a:500_000 ~bal_b:500_000 ();
  assert (Driver.run_until_operational d ~id:"c" ~alice ~bob);
  let c = Party.chan_exn alice "c" in
  let pk_a, pk_b = Party.main_pks c in
  let snapshot = ref None in
  let storage_mid = ref 0 in
  for k = 1 to 200 do
    if k = 100 then begin
      snapshot := (Party.chan_exn bob "c").Party.commit_mine;
      storage_mid := Daric_core.Storage.party_bytes alice ~id:"c"
    end;
    let theta =
      Txs.balance_state ~pk_a ~pk_b
        ~bal_a:(500_000 - (k mod 97 * 100))
        ~bal_b:(500_000 + (k mod 97 * 100))
    in
    assert (Driver.update_channel d ~id:"c" ~initiator:alice ~responder:bob ~theta)
  done;
  check_i "sn = 200" 200 (Party.chan_exn alice "c").Party.sn;
  check_i "storage constant across 100 further updates" !storage_mid
    (Daric_core.Storage.party_bytes alice ~id:"c");
  (* replay state 99 *)
  Driver.corrupt d "bob";
  Driver.adversary_post d (Option.get !snapshot);
  Driver.run d 10;
  check_b "mid-life replay punished" true
    (Driver.saw_event alice (function Party.Punished _ -> true | _ -> false));
  check_i "full capacity recovered" 1_000_000
    (Tx.total_output_value (Option.get (Party.chan_exn alice "c").Party.punish_posted))

let () =
  Alcotest.run "daric-soak"
    [ ( "soak",
        [ Alcotest.test_case "200-update channel" `Slow test_long_channel ] ) ]
