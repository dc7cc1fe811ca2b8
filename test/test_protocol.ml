(* End-to-end tests of the Daric protocol over the simulated ledger:
   create, update, collaborative close, non-collaborative close, and
   the punish path against a dishonest party replaying an old state. *)

module Tx = Daric_tx.Tx
module Ledger = Daric_chain.Ledger
module Party = Daric_core.Party
module Driver = Daric_core.Driver
module Keys = Daric_core.Keys
module Txs = Daric_core.Txs
module Watchtower = Daric_core.Watchtower

let check = Alcotest.(check bool)

type session = {
  d : Driver.t;
  alice : Party.t;
  bob : Party.t;
}

let make_session ?(delta = 1) ?(seed = 7) () : session =
  let d = Driver.create ~delta ~seed () in
  let alice = Party.create ~pid:"alice" ~seed:(seed + 1) () in
  let bob = Party.create ~pid:"bob" ~seed:(seed + 2) () in
  Driver.add_party d alice;
  Driver.add_party d bob;
  { d; alice; bob }

let open_ok ?(bal_a = 60_000) ?(bal_b = 40_000) ?(rel_lock = 3) (s : session)
    ~(id : string) : unit =
  Driver.open_channel s.d ~id ~alice:s.alice ~bob:s.bob ~bal_a ~bal_b ~rel_lock
    ();
  check "channel becomes operational" true
    (Driver.run_until_operational s.d ~id ~alice:s.alice ~bob:s.bob)

let state (s : session) ~bal_a ~bal_b ~id : Tx.output list =
  let c = Party.chan_exn s.alice id in
  let pk_a, pk_b = Party.main_pks c in
  Txs.balance_state ~pk_a ~pk_b ~bal_a ~bal_b

let update_ok (s : session) ~id ~bal_a ~bal_b : unit =
  let theta = state s ~bal_a ~bal_b ~id in
  check "update completes" true
    (Driver.update_channel s.d ~id ~initiator:s.alice ~responder:s.bob ~theta)

(* ------------------------------------------------------------------ *)

let test_create () =
  let s = make_session () in
  open_ok s ~id:"chan1";
  let c = Party.chan_exn s.alice "chan1" in
  check "state number 0" true (c.Party.sn = 0);
  check "funding on chain" true
    (Ledger.is_unspent (Driver.ledger s.d) (Tx.outpoint_of (Option.get c.Party.fund) 0));
  (* Both parties hold the same split transaction body. *)
  let cb = Party.chan_exn s.bob "chan1" in
  let sa = (Option.get c.Party.split).Party.split_body in
  let sb = (Option.get cb.Party.split).Party.split_body in
  check "identical split bodies" true (Tx.txid sa = Tx.txid sb)

let test_update () =
  let s = make_session () in
  open_ok s ~id:"chan1";
  update_ok s ~id:"chan1" ~bal_a:50_000 ~bal_b:50_000;
  let ca = Party.chan_exn s.alice "chan1" in
  let cb = Party.chan_exn s.bob "chan1" in
  check "sn advanced to 1 on both sides" true (ca.Party.sn = 1 && cb.Party.sn = 1);
  check "flags reset" true (ca.Party.flag = 1 && cb.Party.flag = 1);
  check "revocation signatures stored" true
    (ca.Party.rev_sig_theirs <> None && cb.Party.rev_sig_theirs <> None)

let test_many_updates () =
  let s = make_session () in
  open_ok s ~id:"chan1";
  for k = 1 to 10 do
    update_ok s ~id:"chan1" ~bal_a:(60_000 - (1000 * k)) ~bal_b:(40_000 + (1000 * k))
  done;
  let ca = Party.chan_exn s.alice "chan1" in
  check "sn = 10" true (ca.Party.sn = 10)

let test_collaborative_close () =
  let s = make_session () in
  open_ok s ~id:"chan1";
  update_ok s ~id:"chan1" ~bal_a:10_000 ~bal_b:90_000;
  Party.request_close s.alice (Driver.ctx s.d "alice") ~id:"chan1";
  Driver.run s.d 10;
  check "alice saw CLOSED" true
    (Driver.saw_event s.alice (function Party.Closed _ -> true | _ -> false));
  check "bob saw CLOSED" true
    (Driver.saw_event s.bob (function Party.Closed _ -> true | _ -> false));
  (* The final state must sit on chain: one UTXO of 10k for A, 90k for B. *)
  let c = Party.chan_exn s.alice "chan1" in
  let fund_op = Tx.outpoint_of (Option.get c.Party.fund) 0 in
  let spender = Option.get (Ledger.spender_of (Driver.ledger s.d) fund_op) in
  check "fin split pays the last state" true
    (List.map (fun (o : Tx.output) -> o.value) spender.Tx.outputs
    = [ 10_000; 90_000 ])

let test_non_collaborative_close () =
  let s = make_session () in
  open_ok s ~id:"chan1" ~rel_lock:3;
  update_ok s ~id:"chan1" ~bal_a:30_000 ~bal_b:70_000;
  (* Bob goes silent; Alice times out on the close request and
     force-closes; after T rounds her split lands. *)
  Driver.corrupt s.d "bob";
  Party.request_close s.alice (Driver.ctx s.d "alice") ~id:"chan1";
  Driver.run s.d 20;
  check "alice force-closed" true
    (Driver.saw_event s.alice (function Party.Force_closed _ -> true | _ -> false));
  check "alice saw CLOSED" true
    (Driver.saw_event s.alice (function Party.Closed _ -> true | _ -> false));
  let c = Party.chan_exn s.alice "chan1" in
  let fund_op = Tx.outpoint_of (Option.get c.Party.fund) 0 in
  let commit = Option.get (Ledger.spender_of (Driver.ledger s.d) fund_op) in
  let split =
    Option.get (Ledger.spender_of (Driver.ledger s.d) (Tx.outpoint_of commit 0))
  in
  check "split pays the latest state" true
    (List.map (fun (o : Tx.output) -> o.value) split.Tx.outputs
    = [ 30_000; 70_000 ])

(* A dishonest party publishes a revoked commit; the honest counter-party
   punishes and takes all channel funds (Section 4.4 / Fig 3). *)
let test_punish_old_state () =
  let s = make_session () in
  open_ok s ~id:"chan1";
  (* The adversary (Bob) snapshots his state-0 commit before updating. *)
  let cb = Party.chan_exn s.bob "chan1" in
  let old_commit = Option.get cb.Party.commit_mine in
  update_ok s ~id:"chan1" ~bal_a:90_000 ~bal_b:10_000;
  update_ok s ~id:"chan1" ~bal_a:95_000 ~bal_b:5_000;
  (* Bob turns dishonest and replays state 0 (where he had 40k). *)
  Driver.corrupt s.d "bob";
  Driver.adversary_post s.d old_commit;
  Driver.run s.d 10;
  check "alice saw PUNISHED" true
    (Driver.saw_event s.alice (function Party.Punished _ -> true | _ -> false));
  (* Alice's revocation transaction took the full 100k. *)
  let ca = Party.chan_exn s.alice "chan1" in
  let rv = Option.get ca.Party.punish_posted in
  check "revocation pays full capacity to alice" true
    (Tx.total_output_value rv = 100_000);
  check "revocation on chain" true
    (Ledger.is_unspent (Driver.ledger s.d) (Tx.outpoint_of rv 0))

(* The punishment must land before the cheater can use the split path:
   the split branch is blocked by T, the revocation branch is instant. *)
let test_punish_beats_split () =
  let s = make_session ~delta:2 () in
  open_ok s ~id:"chan1" ~rel_lock:5;
  let cb = Party.chan_exn s.bob "chan1" in
  let old_commit = Option.get cb.Party.commit_mine in
  let old_split = Option.get cb.Party.split in
  update_ok s ~id:"chan1" ~bal_a:90_000 ~bal_b:10_000;
  Driver.corrupt s.d "bob";
  Driver.adversary_post s.d old_commit;
  (* Bob tries to settle the old state immediately with its split —
     the CSV delay T makes the attempt invalid while the revocation
     flies through. *)
  Driver.step s.d;
  let commit_op = Tx.outpoint_of old_commit 0 in
  let script =
    Daric_core.Txs.commit_script_of ~role:Keys.Bob
      ~keys_a:(fst (Party.keys_ab cb)) ~keys_b:(snd (Party.keys_ab cb))
      ~s0:cb.Party.cfg.s0 ~i:0 ~rel_lock:cb.Party.cfg.rel_lock
  in
  let split_attempt =
    Txs.complete_split old_split.Party.split_body ~commit_outpoint:commit_op
      ~commit_script:script ~sig_a:old_split.Party.split_sig_a
      ~sig_b:old_split.Party.split_sig_b
  in
  Driver.adversary_post s.d split_attempt;
  Driver.run s.d 12;
  check "alice punished despite split race" true
    (Driver.saw_event s.alice (function Party.Punished _ -> true | _ -> false))

(* Old revocation/split transactions cannot spend the latest commit:
   state ordering via nLockTime vs the CLTV in the commit script. *)
let test_state_ordering () =
  let s = make_session () in
  open_ok s ~id:"chan1";
  let cb = Party.chan_exn s.bob "chan1" in
  let old_split = Option.get cb.Party.split in
  update_ok s ~id:"chan1" ~bal_a:90_000 ~bal_b:10_000;
  (* Alice closes non-collaboratively with the latest commit. *)
  Driver.corrupt s.d "bob";
  let ca = Party.chan_exn s.alice "chan1" in
  let latest_commit = Option.get ca.Party.commit_mine in
  Driver.adversary_post s.d latest_commit;
  Driver.step s.d;
  (* Bob tries to spend it with the REVOKED state-0 split. *)
  let script =
    Daric_core.Txs.commit_script_of ~role:Keys.Alice
      ~keys_a:(fst (Party.keys_ab cb)) ~keys_b:(snd (Party.keys_ab cb))
      ~s0:cb.Party.cfg.s0 ~i:1 ~rel_lock:cb.Party.cfg.rel_lock
  in
  let stale =
    Txs.complete_split old_split.Party.split_body
      ~commit_outpoint:(Tx.outpoint_of latest_commit 0) ~commit_script:script
      ~sig_a:old_split.Party.split_sig_a ~sig_b:old_split.Party.split_sig_b
  in
  Driver.adversary_post s.d stale;
  Driver.run s.d 10;
  (* The commit output must have been claimed by the CURRENT split
     (posted by honest Alice), not the stale one. *)
  let spender =
    Option.get
      (Ledger.spender_of (Driver.ledger s.d) (Tx.outpoint_of latest_commit 0))
  in
  check "latest split won" true
    (List.map (fun (o : Tx.output) -> o.value) spender.Tx.outputs
    = [ 90_000; 10_000 ])

(* A watchtower punishes on behalf of an offline client. *)
let test_watchtower_punishes () =
  let s = make_session () in
  open_ok s ~id:"chan1";
  let cb = Party.chan_exn s.bob "chan1" in
  let old_commit = Option.get cb.Party.commit_mine in
  update_ok s ~id:"chan1" ~bal_a:80_000 ~bal_b:20_000;
  let wt = Watchtower.create ~wid:"wt1" () in
  (match Watchtower.record_for s.alice ~id:"chan1" with
  | Some r -> assert (Watchtower.watch wt r)
  | None -> Alcotest.fail "no watchtower record after update");
  Driver.add_watchtower s.d wt;
  (* Both Alice (offline) and Bob (dishonest) stop acting. *)
  Driver.corrupt s.d "alice";
  Driver.corrupt s.d "bob";
  Driver.adversary_post s.d old_commit;
  Driver.run s.d 10;
  check "watchtower reacted" true (Watchtower.punished wt = [ "chan1" ]);
  (* the revocation output belongs to Alice's main key *)
  let commit_spender =
    Option.get
      (Ledger.spender_of (Driver.ledger s.d) (Tx.outpoint_of old_commit 0))
  in
  check "full funds to client" true
    (Tx.total_output_value commit_spender = 100_000)

(* The watchtower must NOT punish the latest commit. *)
let test_watchtower_ignores_latest () =
  let s = make_session () in
  open_ok s ~id:"chan1";
  update_ok s ~id:"chan1" ~bal_a:80_000 ~bal_b:20_000;
  let wt = Watchtower.create ~wid:"wt1" () in
  (match Watchtower.record_for s.alice ~id:"chan1" with
  | Some r -> assert (Watchtower.watch wt r)
  | None -> Alcotest.fail "no record");
  Driver.add_watchtower s.d wt;
  Driver.corrupt s.d "alice";
  let cb = Party.chan_exn s.bob "chan1" in
  let latest = Option.get cb.Party.commit_mine in
  Driver.corrupt s.d "bob";
  Driver.adversary_post s.d latest;
  Driver.run s.d 10;
  check "watchtower stayed quiet" true (Watchtower.punished wt = [])

(* Update abort at the SETUP' step: the responder stops cooperating
   after receiving the initiator's commit signature; the initiator
   force-closes with the newest enforceable state. *)
let test_force_close_mid_update () =
  let s = make_session () in
  open_ok s ~id:"chan1";
  update_ok s ~id:"chan1" ~bal_a:55_000 ~bal_b:45_000;
  let theta = state s ~bal_a:20_000 ~bal_b:80_000 ~id:"chan1" in
  Party.request_update s.alice (Driver.ctx s.d "alice") ~id:"chan1" ~theta ();
  (* Let the updateReq and updateInfo flow, then kill Bob before he
     answers updateComP. *)
  Driver.run s.d 2;
  Driver.corrupt s.d "bob";
  Driver.run s.d 25;
  check "alice force-closed" true
    (Driver.saw_event s.alice (function Party.Force_closed _ -> true | _ -> false));
  check "alice eventually closed" true
    (Driver.saw_event s.alice (function Party.Closed _ -> true | _ -> false))

(* Consensus on update: the responder's environment refuses; the state
   stays unchanged with no on-chain interaction. *)
let test_update_rejected () =
  let d = Driver.create ~delta:1 ~seed:3 () in
  let env_reject =
    { Party.accept_all with
      Party.approve_update = (fun ~id:_ ~theta:_ -> false) }
  in
  let alice = Party.create ~pid:"alice" ~seed:4 () in
  let bob = Party.create ~env:env_reject ~pid:"bob" ~seed:5 () in
  Driver.add_party d alice;
  Driver.add_party d bob;
  Driver.open_channel d ~id:"chan1" ~alice ~bob ~bal_a:60_000 ~bal_b:40_000 ();
  Alcotest.(check bool) "operational" true
    (Driver.run_until_operational d ~id:"chan1" ~alice ~bob);
  let c = Party.chan_exn alice "chan1" in
  let pk_a, pk_b = Party.main_pks c in
  let theta = Txs.balance_state ~pk_a ~pk_b ~bal_a:1_000 ~bal_b:99_000 in
  Party.request_update alice (Driver.ctx d "alice") ~id:"chan1" ~theta ();
  Driver.run d 8;
  check "alice reverted to operational" true
    (Driver.channel_operational alice ~id:"chan1");
  check "state unchanged" true ((Party.chan_exn alice "chan1").Party.sn = 0);
  check "no force close" true
    (not (Driver.saw_event alice (function Party.Force_closed _ -> true | _ -> false)))

(* Optimistic update: honest parties never touch the ledger. *)
let test_optimistic_update_no_chain () =
  let s = make_session () in
  open_ok s ~id:"chan1";
  let txs_before = List.length (Ledger.accepted (Driver.ledger s.d)) in
  for k = 1 to 5 do
    update_ok s ~id:"chan1" ~bal_a:(60_000 - k) ~bal_b:(40_000 + k)
  done;
  let txs_after = List.length (Ledger.accepted (Driver.ledger s.d)) in
  check "no ledger interaction during updates" true (txs_before = txs_after)

(* Both parties request an update in the same round: the paper's
   wrapper drops updateReq while another update is in flight, so both
   attempts fizzle and the channel stays consistent. *)
let test_concurrent_update_requests () =
  let s = make_session () in
  open_ok s ~id:"chan1";
  let theta_a = state s ~bal_a:70_000 ~bal_b:30_000 ~id:"chan1" in
  let theta_b = state s ~bal_a:30_000 ~bal_b:70_000 ~id:"chan1" in
  Party.request_update s.alice (Driver.ctx s.d "alice") ~id:"chan1"
    ~theta:theta_a ();
  Party.request_update s.bob (Driver.ctx s.d "bob") ~id:"chan1" ~theta:theta_b ();
  Driver.run s.d 12;
  let ca = Party.chan_exn s.alice "chan1" in
  let cb = Party.chan_exn s.bob "chan1" in
  check "both back to operational" true
    (ca.Party.phase = Party.Operational && cb.Party.phase = Party.Operational);
  check "no state divergence" true
    (ca.Party.sn = cb.Party.sn && Party.outputs_equal ca.Party.st cb.Party.st);
  (* the channel still works afterwards *)
  update_ok s ~id:"chan1" ~bal_a:45_000 ~bal_b:55_000

(* One party runs several independent channels concurrently. *)
let test_multiple_channels_per_party () =
  let d = Driver.create ~delta:1 ~seed:17 () in
  let hub = Party.create ~pid:"hub" ~seed:1 () in
  let p1 = Party.create ~pid:"p1" ~seed:2 () in
  let p2 = Party.create ~pid:"p2" ~seed:3 () in
  let p3 = Party.create ~pid:"p3" ~seed:4 () in
  List.iter (Driver.add_party d) [ hub; p1; p2; p3 ];
  List.iteri
    (fun i peer ->
      Driver.open_channel d ~id:(Fmt.str "hub%d" i) ~alice:hub ~bob:peer
        ~bal_a:50_000 ~bal_b:50_000 ())
    [ p1; p2; p3 ];
  Driver.run d 12;
  List.iteri
    (fun i peer ->
      let id = Fmt.str "hub%d" i in
      check (id ^ " operational") true
        (Driver.channel_operational hub ~id
        && Driver.channel_operational peer ~id))
    [ p1; p2; p3 ];
  (* update them in interleaved fashion *)
  List.iteri
    (fun i peer ->
      let id = Fmt.str "hub%d" i in
      let c = Party.chan_exn hub id in
      let pk_a, pk_b = Party.main_pks c in
      let theta =
        Txs.balance_state ~pk_a ~pk_b
          ~bal_a:(40_000 - (1_000 * i))
          ~bal_b:(60_000 + (1_000 * i))
      in
      check (id ^ " updates") true
        (Driver.update_channel d ~id ~initiator:hub ~responder:peer ~theta))
    [ p1; p2; p3 ];
  (* one peer cheats; only that channel is affected *)
  let cheat_commit = Option.get (Party.chan_exn p2 "hub1").Party.commit_mine in
  let c1 = Party.chan_exn hub "hub1" in
  let pk_a, pk_b = Party.main_pks c1 in
  let theta = Txs.balance_state ~pk_a ~pk_b ~bal_a:10_000 ~bal_b:90_000 in
  check "hub1 second update" true
    (Driver.update_channel d ~id:"hub1" ~initiator:hub ~responder:p2 ~theta);
  Driver.corrupt d "p2";
  Driver.adversary_post d cheat_commit;
  Driver.run d 10;
  check "hub punished on hub1" true
    (Driver.saw_event hub (function Party.Punished "hub1" -> true | _ -> false));
  check "hub0 untouched" true (Driver.channel_operational hub ~id:"hub0");
  check "hub2 untouched" true (Driver.channel_operational hub ~id:"hub2")

(* The responder can also be the one to notice fraud while an update is
   in flight (flag = 2): the punish daemon covers both active states. *)
let test_punish_during_pending_update () =
  let s = make_session () in
  open_ok s ~id:"chan1";
  let old_commit = Option.get (Party.chan_exn s.bob "chan1").Party.commit_mine in
  update_ok s ~id:"chan1" ~bal_a:80_000 ~bal_b:20_000;
  (* start another update but freeze it mid-flight *)
  let theta = state s ~bal_a:75_000 ~bal_b:25_000 ~id:"chan1" in
  Party.request_update s.alice (Driver.ctx s.d "alice") ~id:"chan1" ~theta ();
  Driver.run s.d 2 (* updateReq delivered, updateInfo sent *);
  (* now bob turns dishonest and posts the state-0 commit *)
  Driver.corrupt s.d "bob";
  Driver.adversary_post s.d old_commit;
  Driver.run s.d 12;
  check "alice punished despite pending update" true
    (Driver.saw_event s.alice (function Party.Punished _ -> true | _ -> false))

(* Watchtower coverage: ALL guarded channels are breached in the same
   round; the tower punishes every one within the dispute window (no
   per-channel collateral limits in Daric, unlike FPPW/Cerberus). *)
let test_watchtower_mass_breach () =
  let d = Driver.create ~delta:1 ~seed:73 () in
  let wt = Watchtower.create ~wid:"tower" () in
  Driver.add_watchtower d wt;
  let n = 6 in
  let chans =
    List.init n (fun i ->
        let a = Party.create ~pid:(Fmt.str "a%d" i) ~seed:(300 + i) () in
        let b = Party.create ~pid:(Fmt.str "b%d" i) ~seed:(400 + i) () in
        Driver.add_party d a;
        Driver.add_party d b;
        let id = Fmt.str "w%d" i in
        Driver.open_channel d ~id ~alice:a ~bob:b ~bal_a:50_000 ~bal_b:50_000 ();
        assert (Driver.run_until_operational d ~id ~alice:a ~bob:b);
        let snapshot = Option.get (Party.chan_exn b id).Party.commit_mine in
        let c = Party.chan_exn a id in
        let pk_a, pk_b = Party.main_pks c in
        let theta = Txs.balance_state ~pk_a ~pk_b ~bal_a:70_000 ~bal_b:30_000 in
        assert (Driver.update_channel d ~id ~initiator:a ~responder:b ~theta);
        (match Watchtower.record_for a ~id with
        | Some r -> assert (Watchtower.watch wt r)
        | None -> Alcotest.fail "no record");
        Driver.corrupt d a.Party.pid;
        Driver.corrupt d b.Party.pid;
        (id, snapshot))
  in
  (* every cheater fires in the same round *)
  List.iter (fun (_, snap) -> Driver.adversary_post d snap) chans;
  Driver.run d 8;
  check "tower punished all channels simultaneously" true
    (List.length (Watchtower.punished wt) = n)

(* Closure works symmetrically from the Bob side. *)
let test_close_initiated_by_bob () =
  let s = make_session ~seed:41 () in
  open_ok s ~id:"chan1";
  update_ok s ~id:"chan1" ~bal_a:25_000 ~bal_b:75_000;
  Party.request_close s.bob (Driver.ctx s.d "bob") ~id:"chan1";
  Driver.run s.d 10;
  check "both closed" true
    (Driver.saw_event s.alice (function Party.Closed _ -> true | _ -> false)
    && Driver.saw_event s.bob (function Party.Closed _ -> true | _ -> false));
  let c = Party.chan_exn s.bob "chan1" in
  let spender =
    Option.get
      (Ledger.spender_of (Driver.ledger s.d)
         (Tx.outpoint_of (Option.get c.Party.fund) 0))
  in
  check "final state on chain" true
    (List.map (fun (o : Tx.output) -> o.value) spender.Tx.outputs
    = [ 25_000; 75_000 ])

(* The counter-party's environment refuses the collaborative close:
   the requester times out and force-closes with the same final
   balances (the ideal functionality's "Q disagreed" branch). *)
let test_close_refused_forces_unilateral () =
  let d = Driver.create ~delta:1 ~seed:43 () in
  let env_refuse =
    { Party.accept_all with Party.approve_close = (fun ~id:_ -> false) }
  in
  let alice = Party.create ~pid:"alice" ~seed:1 () in
  let bob = Party.create ~env:env_refuse ~pid:"bob" ~seed:2 () in
  Driver.add_party d alice;
  Driver.add_party d bob;
  Driver.open_channel d ~id:"c" ~alice ~bob ~bal_a:60_000 ~bal_b:40_000 ();
  assert (Driver.run_until_operational d ~id:"c" ~alice ~bob);
  Party.request_close alice (Driver.ctx d "alice") ~id:"c";
  Driver.run d 20;
  check "alice force-closed" true
    (Driver.saw_event alice (function Party.Force_closed _ -> true | _ -> false));
  check "alice closed with latest state" true
    (Driver.saw_event alice (function Party.Closed _ -> true | _ -> false));
  let c = Party.chan_exn alice "c" in
  let commit =
    Option.get
      (Ledger.spender_of (Driver.ledger d)
         (Tx.outpoint_of (Option.get c.Party.fund) 0))
  in
  let split =
    Option.get (Ledger.spender_of (Driver.ledger d) (Tx.outpoint_of commit 0))
  in
  check "split pays initial state" true
    (List.map (fun (o : Tx.output) -> o.value) split.Tx.outputs
    = [ 60_000; 40_000 ])

(* Bob can also be the update initiator (role symmetry of the update
   sub-protocol). *)
let test_update_initiated_by_bob () =
  let s = make_session ~seed:47 () in
  open_ok s ~id:"chan1";
  let theta = state s ~bal_a:45_000 ~bal_b:55_000 ~id:"chan1" in
  check "bob-initiated update completes" true
    (Driver.update_channel s.d ~id:"chan1" ~initiator:s.bob ~responder:s.alice
       ~theta);
  let ca = Party.chan_exn s.alice "chan1" in
  check "state agreed" true
    (ca.Party.sn = 1 && Party.outputs_equal ca.Party.st theta);
  (* and alice can still punish a later replay by bob *)
  let cb = Party.chan_exn s.bob "chan1" in
  let old_commit = Option.get cb.Party.commit_mine in
  update_ok s ~id:"chan1" ~bal_a:80_000 ~bal_b:20_000;
  Driver.corrupt s.d "bob";
  Driver.adversary_post s.d old_commit;
  Driver.run s.d 10;
  check "punish works after bob-initiated updates" true
    (Driver.saw_event s.alice (function Party.Punished _ -> true | _ -> false))

(* ------------------------------------------------------------------ *)
(* The revoked-commit punisher the party and the tower share. *)

(* Alice's punisher against Bob's commits of states 0..3 (state 4 is
   the latest): each revoked one is bound and validates on chain;
   the latest state, Alice's own commit, Bob's commit under the wrong
   owner, a two-input spend and a foreign P2WSH output are refused. *)
let test_punish_revoked () =
  let s = make_session () in
  open_ok s ~id:"chan1";
  let bob_commit () = Option.get (Party.chan_exn s.bob "chan1").Party.commit_mine in
  let ca = Party.chan_exn s.alice "chan1" in
  let alice_commit0 = Option.get ca.Party.commit_mine in
  let commits = ref [ bob_commit () ] in
  for k = 1 to 4 do
    update_ok s ~id:"chan1" ~bal_a:(60_000 - (1_000 * k)) ~bal_b:(40_000 + (1_000 * k));
    commits := !commits @ [ bob_commit () ]
  done;
  let revoked, rev_body, sig_a, sig_b = Option.get (Party.latest_revocation ca) in
  check "revoked index is sn - 1" true (revoked = 3);
  let keys_a, keys_b = Party.keys_ab ca in
  let punish ?(owner = Keys.Bob) tx =
    Txs.punish_revoked ~keys_a ~keys_b ~s0:ca.Party.cfg.s0
      ~rel_lock:ca.Party.cfg.rel_lock ~owner ~revoked ~rev_body ~sig_a ~sig_b tx
  in
  let ledger = Driver.ledger s.d in
  List.iteri
    (fun i cm ->
      if i <= revoked then
        match punish cm with
        | None -> Alcotest.failf "revoked state %d not punished" i
        | Some rv ->
            check "spends the commit output" true
              (List.map (fun (x : Tx.input) -> x.prevout) rv.Tx.inputs
              = [ Tx.outpoint_of cm 0 ]);
            let cp = Ledger.checkpoint ledger in
            Ledger.record ledger cm;
            check (Fmt.str "state-%d revocation valid on chain" i) true
              (Ledger.validate ledger rv = Ok ());
            Ledger.rollback ledger cp)
    !commits;
  let latest = List.nth !commits 4 in
  let cm0 = List.hd !commits in
  check "latest state refused" true (punish latest = None);
  check "own commit refused" true (punish alice_commit0 = None);
  check "wrong owner refused" true (punish ~owner:Keys.Alice cm0 = None);
  let two_inputs =
    Tx.make ~locktime:cm0.Tx.locktime
      ~inputs:(cm0.Tx.inputs @ [ Tx.input_of_outpoint (Tx.outpoint_of latest 0) ])
      ~outputs:cm0.Tx.outputs ()
  in
  check "two-input spend refused" true (punish two_inputs = None);
  let foreign =
    Tx.make ~locktime:cm0.Tx.locktime ~inputs:cm0.Tx.inputs
      ~outputs:
        (List.map
           (fun (o : Tx.output) -> { o with Tx.spk = Tx.P2wsh (String.make 32 '\x07') })
           cm0.Tx.outputs)
      ()
  in
  check "P2WSH mismatch refused" true (punish foreign = None)

(* The party's own daemon and a tower holding its record post the
   very same revocation transaction. *)
let test_party_and_tower_agree () =
  let s = make_session () in
  open_ok s ~id:"chan1";
  let old_commit = Option.get (Party.chan_exn s.bob "chan1").Party.commit_mine in
  update_ok s ~id:"chan1" ~bal_a:70_000 ~bal_b:30_000;
  update_ok s ~id:"chan1" ~bal_a:75_000 ~bal_b:25_000;
  let wt = Watchtower.create ~wid:"wt" () in
  check "tower accepts alice's record" true
    (Watchtower.watch wt (Option.get (Watchtower.record_for s.alice ~id:"chan1")));
  Driver.corrupt s.d "bob";
  Driver.adversary_post s.d old_commit;
  Driver.run s.d 10;
  check "alice punished" true
    (Driver.saw_event s.alice (function Party.Punished _ -> true | _ -> false));
  let party_rv = Option.get (Party.chan_exn s.alice "chan1").Party.punish_posted in
  let tower_rv = ref None in
  Watchtower.end_of_round wt ~round:(Driver.round s.d) ~ledger:(Driver.ledger s.d)
    ~post:(fun tx -> tower_rv := Some tx);
  let tower_rv = Option.get !tower_rv in
  check "same txid" true (String.equal (Tx.txid party_rv) (Tx.txid tower_rv));
  check "same bytes, witness included" true
    (String.equal (Daric_tx.Txcodec.encode_tx party_rv)
       (Daric_tx.Txcodec.encode_tx tower_rv))

(* ------------------------------------------------------------------ *)
(* Forged-signature matrix: a session relayed by hand, so one message
   can be rewritten in transit. Every signature-carrying message gets
   one flipped signature byte; the receiver must report the exact
   Protocol_error, take its Appendix-D follow-up (deadline refund,
   return to Operational, or ForceClose) and end with at least its
   last co-signed balance. *)

module Wire = Daric_core.Wire
module Network = Daric_chain.Network

type relay = {
  r_ledger : Ledger.t;
  r_alice : Party.t;
  r_bob : Party.t;
  mutable r_queue : (string * string * Wire.msg) list;
      (** (sender, recipient, message), oldest first *)
  mutable r_forge : sender:string -> Wire.msg -> Wire.msg;
}

let relay_ctx (r : relay) (pid : string) : Party.ctx =
  { Party.round = Ledger.height r.r_ledger;
    ledger = r.r_ledger;
    send = (fun ~recipient msg -> r.r_queue <- r.r_queue @ [ (pid, recipient, msg) ]);
    post = (fun tx -> Ledger.post r.r_ledger tx ~delay:(Ledger.delta r.r_ledger)) }

let relay_party (r : relay) (pid : string) : Party.t =
  if pid = "alice" then r.r_alice else r.r_bob

(* One round, in the order of [Driver.step]: tick, deliver last
   round's messages (alice's, then bob's), end-of-round. *)
let relay_step (r : relay) : unit =
  ignore (Ledger.tick r.r_ledger);
  let due = r.r_queue in
  r.r_queue <- [];
  List.iter
    (fun pid ->
      List.iter
        (fun (sender, recipient, msg) ->
          if recipient = pid then
            Party.handle_msg (relay_party r pid) (relay_ctx r pid)
              { Network.sender; recipient; payload = r.r_forge ~sender msg })
        due)
    [ "alice"; "bob" ];
  Party.end_of_round r.r_alice (relay_ctx r "alice");
  Party.end_of_round r.r_bob (relay_ctx r "bob")

let flip_byte (s : string) : string =
  let b = Bytes.of_string s in
  Bytes.set b 7 (Char.chr (Char.code (Bytes.get b 7) lxor 0x01));
  Bytes.to_string b

(* Flip one signature byte of [kind] sent by [from]; every other
   message passes untouched. *)
let forge_one ~(kind : string) ~(from : string) ~(sender : string)
    (msg : Wire.msg) : Wire.msg =
  if sender <> from || Wire.kind msg <> kind then msg
  else
    match msg with
    | Wire.Create_com m -> Wire.Create_com { m with commit_sig = flip_byte m.commit_sig }
    | Wire.Create_fund m -> Wire.Create_fund { m with fund_sig = flip_byte m.fund_sig }
    | Wire.Update_info m -> Wire.Update_info { m with split_sig = flip_byte m.split_sig }
    | Wire.Update_com_initiator m ->
        Wire.Update_com_initiator { m with split_sig = flip_byte m.split_sig }
    | Wire.Update_com_responder m ->
        Wire.Update_com_responder { m with commit_sig = flip_byte m.commit_sig }
    | Wire.Revoke_initiator m -> Wire.Revoke_initiator { m with rev_sig = flip_byte m.rev_sig }
    | Wire.Revoke_responder m -> Wire.Revoke_responder { m with rev_sig = flip_byte m.rev_sig }
    | Wire.Close_req m -> Wire.Close_req { m with fin_sig = flip_byte m.fin_sig }
    | Wire.Close_ack m -> Wire.Close_ack { m with fin_sig = flip_byte m.fin_sig }
    | Wire.Create_info _ | Wire.Update_req _ -> msg

(* Where the forged message is sent: while the channel opens, during an
   update from state 1 to 2 (alice initiates), or during a close at
   state 1 (alice requests). *)
type stage = Open | Update | Close

type forgery = {
  f_kind : string;
  f_from : string;  (** forger; the receiver is the honest party *)
  f_stage : stage;
  f_error : string;
  f_phases : string list;
      (** the honest party's phases, one per distinct value, from the
          round of the error until the channel is done *)
  f_events : string list;  (** the honest party's events from the error on *)
  f_floor : int;  (** the honest party's last co-signed balance *)
}

let matrix_id = "m"

(* Value on chain paying the party's main key. *)
let owned (l : Ledger.t) (keys : Keys.t) : int =
  let spk = Tx.P2wpkh (Daric_crypto.Hash.hash160 (Keys.enc keys.Keys.main.pk)) in
  Ledger.fold_utxos l
    (fun _ (u : Ledger.utxo) acc -> if u.output.Tx.spk = spk then acc + u.output.value else acc)
    0

let run_forgery (f : forgery) () =
  let ledger = Ledger.create ~delta:1 () in
  let r =
    { r_ledger = ledger;
      r_alice = Party.create ~pid:"alice" ~seed:1 ();
      r_bob = Party.create ~pid:"bob" ~seed:2 ();
      r_queue = [];
      r_forge = (fun ~sender:_ msg -> msg) }
  in
  let honest_pid = if f.f_from = "alice" then "bob" else "alice" in
  let honest = relay_party r honest_pid in
  let rng = Daric_util.Rng.create ~seed:99 in
  let keys_a = Keys.generate rng and keys_b = Keys.generate rng in
  let mint (k : Keys.t) value =
    Ledger.mint ledger ~value
      ~spk:(Tx.P2wpkh (Daric_crypto.Hash.hash160 (Keys.enc k.Keys.main.pk)))
  in
  let cfg_a =
    { Party.id = matrix_id; role = Keys.Alice; peer = "bob"; bal_a = 60_000;
      bal_b = 40_000; rel_lock = 3; s0 = 500_000_000 }
  in
  let cfg_b = { cfg_a with Party.role = Keys.Bob; peer = "alice" } in
  Party.intro r.r_alice (relay_ctx r "alice") ~keys:keys_a ~cfg:cfg_a
    ~tid:(mint keys_a 60_000) ();
  Party.intro r.r_bob (relay_ctx r "bob") ~keys:keys_b ~cfg:cfg_b
    ~tid:(mint keys_b 40_000) ();
  let phase p = (Party.chan_exn p matrix_id).Party.phase in
  let run_until pred =
    let rec go n = if n > 0 && not (pred ()) then (relay_step r; go (n - 1)) in
    go 30
  in
  let operational () =
    phase r.r_alice = Party.Operational && phase r.r_bob = Party.Operational
  in
  let theta ~bal_a ~bal_b =
    let pk_a, pk_b = Party.main_pks (Party.chan_exn r.r_alice matrix_id) in
    Txs.balance_state ~pk_a ~pk_b ~bal_a ~bal_b
  in
  let ctx_a () = relay_ctx r "alice" in
  let arm () = r.r_forge <- forge_one ~kind:f.f_kind ~from:f.f_from in
  if f.f_stage = Open then arm ()
  else begin
    run_until operational;
    Party.request_update r.r_alice (ctx_a ()) ~id:matrix_id
      ~theta:(theta ~bal_a:50_000 ~bal_b:50_000) ();
    run_until (fun () ->
        operational () && (Party.chan_exn r.r_bob matrix_id).Party.sn = 1);
    check "honest update to state 1" true
      ((Party.chan_exn r.r_alice matrix_id).Party.sn = 1);
    arm ();
    match f.f_stage with
    | Update ->
        Party.request_update r.r_alice (ctx_a ()) ~id:matrix_id
          ~theta:(theta ~bal_a:45_000 ~bal_b:55_000) ()
    | Close -> Party.request_close r.r_alice (ctx_a ()) ~id:matrix_id
    | Open -> ()
  end;
  let is_error (_, ev) =
    ev = Party.Protocol_error (matrix_id, f.f_error)
  in
  let phases = ref [] in
  let note () =
    let p = Party.phase_to_string (phase honest) in
    match !phases with q :: _ when q = p -> () | _ -> phases := p :: !phases
  in
  let run_to_done () =
    let rounds = ref 0 in
    while !rounds < 40 && phase honest <> Party.Done do
      relay_step r;
      incr rounds;
      if List.exists is_error (Party.events honest) then note ()
    done
  in
  run_to_done ();
  (* A channel that survived the forgery is closed by the honest party
     so that its balance shows on chain. *)
  if phase honest = Party.Operational then begin
    Party.force_close honest (relay_ctx r honest_pid)
      (Party.chan_exn honest matrix_id);
    note ();
    run_to_done ()
  end;
  let rec from_error = function
    | [] -> []
    | ev :: rest as l -> if is_error ev then l else from_error rest
  in
  let events =
    List.map (fun (_, ev) -> Party.event_to_string ev) (from_error (Party.events honest))
  in
  let honest_keys = if honest_pid = "alice" then keys_a else keys_b in
  Alcotest.(check (list string)) "exact error, then follow-up" f.f_events events;
  Alcotest.(check (list string)) "honest phases" f.f_phases (List.rev !phases);
  check "honest party settled" true (phase honest = Party.Done);
  check "no honest loss" true (owned ledger honest_keys >= f.f_floor)

let forgeries : forgery list =
  let f f_kind f_from f_stage f_error f_phases f_events f_floor =
    let f_events =
      ("ERROR m: " ^ f_error) :: List.map (fun e -> e ^ " m") f_events
    in
    { f_kind; f_from; f_stage; f_error; f_phases; f_events; f_floor }
  in
  let refund = [ "refunding"; "done" ] and fc = [ "force-closed"; "done" ] in
  [ f "createCom" "bob" Open "invalid createCom signatures"
      ("await-create-com" :: refund) [ "ABORTED" ] 60_000;
    (* bob posts the funding with alice's signature before her
       deadline: she proceeds with the state-0 data she holds *)
    f "createFund" "bob" Open "invalid createFund signature"
      ("await-create-fund" :: "operational" :: fc)
      [ "CREATED"; "FORCE-CLOSE"; "CLOSED" ] 60_000;
    (* alice stays operational; bob's deadline force-closes state 1 *)
    f "updateInfo" "bob" Update "invalid updateInfo signature"
      [ "operational"; "done" ] [ "CLOSED" ] 50_000;
    f "updateComP" "alice" Update "invalid updateComP signatures" fc
      [ "FORCE-CLOSE"; "CLOSED" ] 50_000;
    (* alice signed bob's state-2 commit, so her floor is state 2 *)
    f "updateComQ" "bob" Update "invalid updateComQ signature" fc
      [ "FORCE-CLOSE"; "CLOSED" ] 45_000;
    f "revokeP" "alice" Update "invalid revokeP signature" fc
      [ "FORCE-CLOSE"; "CLOSED" ] 50_000;
    f "revokeQ" "bob" Update "invalid revokeQ signature" fc
      [ "FORCE-CLOSE"; "CLOSED" ] 45_000;
    f "closeP" "alice" Close "invalid closeP signature"
      [ "operational"; "done" ] [ "CLOSED" ] 50_000;
    f "closeQ" "bob" Close "invalid closeQ signature" fc
      [ "FORCE-CLOSE"; "CLOSED" ] 50_000 ]

let () =
  Alcotest.run "daric-protocol"
    [ ( "punisher",
        [ Alcotest.test_case "punish_revoked accepts and refuses" `Quick
            test_punish_revoked;
          Alcotest.test_case "party and tower post the same revocation" `Quick
            test_party_and_tower_agree ] );
      ( "forged signatures",
        List.map
          (fun f -> Alcotest.test_case f.f_kind `Quick (run_forgery f))
          forgeries );
      ( "lifecycle",
        [ Alcotest.test_case "create" `Quick test_create;
          Alcotest.test_case "update" `Quick test_update;
          Alcotest.test_case "many updates" `Quick test_many_updates;
          Alcotest.test_case "collaborative close" `Quick test_collaborative_close;
          Alcotest.test_case "non-collaborative close" `Quick
            test_non_collaborative_close ] );
      ( "security",
        [ Alcotest.test_case "punish old state" `Quick test_punish_old_state;
          Alcotest.test_case "punish beats split" `Quick test_punish_beats_split;
          Alcotest.test_case "state ordering" `Quick test_state_ordering;
          Alcotest.test_case "watchtower punishes" `Quick test_watchtower_punishes;
          Alcotest.test_case "watchtower ignores latest" `Quick
            test_watchtower_ignores_latest;
          Alcotest.test_case "force close mid-update" `Quick
            test_force_close_mid_update ] );
      ( "consensus",
        [ Alcotest.test_case "update rejected" `Quick test_update_rejected;
          Alcotest.test_case "optimistic update off-chain" `Quick
            test_optimistic_update_no_chain ] );
      ( "concurrency",
        [ Alcotest.test_case "concurrent update requests" `Quick
            test_concurrent_update_requests;
          Alcotest.test_case "multiple channels per party" `Quick
            test_multiple_channels_per_party;
          Alcotest.test_case "punish during pending update" `Quick
            test_punish_during_pending_update;
          Alcotest.test_case "watchtower mass breach" `Quick
            test_watchtower_mass_breach ] );
      ( "symmetry",
        [ Alcotest.test_case "close initiated by bob" `Quick
            test_close_initiated_by_bob;
          Alcotest.test_case "close refused -> unilateral" `Quick
            test_close_refused_forces_unilateral;
          Alcotest.test_case "update initiated by bob" `Quick
            test_update_initiated_by_bob ] ) ]
