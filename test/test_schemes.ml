(* Tests for the baseline channel schemes: eltoo (floating updates,
   override semantics, no punishment), Lightning (penalty, O(n)
   storage), Generalized (adaptor-signature punish) and the Appendix-H
   cost model. *)

module Tx = Daric_tx.Tx
module Ledger = Daric_chain.Ledger
module Eltoo = Daric_schemes.Eltoo
module Lightning = Daric_schemes.Lightning
module Generalized = Daric_schemes.Generalized
module Costmodel = Daric_schemes.Costmodel
module Rng = Daric_util.Rng

let check_b = Alcotest.(check bool)
let check_i = Alcotest.(check int)

let fresh () = (Ledger.create ~delta:1 (), Rng.create ~seed:21)

let settle (l : Ledger.t) n =
  for _ = 1 to n do
    ignore (Ledger.tick l)
  done

(* ---------------- eltoo ---------------- *)

let test_eltoo_close_latest () =
  let l, rng = fresh () in
  let ch = Eltoo.create ~ledger:l ~rng ~bal_a:700 ~bal_b:300 () in
  ignore (Eltoo.update ch ~bal_a:600 ~bal_b:400);
  ignore (Eltoo.update ch ~bal_a:500 ~bal_b:500);
  (* publish latest update from the funding output *)
  let upd =
    Eltoo.latest_update_completed ch ~from:`Funding
      ~outpoint:(Eltoo.funding_outpoint ch)
  in
  Ledger.post l upd ~delay:0;
  settle l 1;
  check_b "update on chain" true
    (Ledger.is_unspent l (Tx.outpoint_of upd 0));
  (* settlement blocked before T *)
  let st = Eltoo.latest_settlement_completed ch ~outpoint:(Tx.outpoint_of upd 0) in
  check_b "settlement blocked by CSV" true (Ledger.validate l st <> Ok ());
  settle l ch.Eltoo.rel_lock;
  check_b "settlement valid after T" true (Ledger.validate l st = Ok ());
  Ledger.post l st ~delay:0;
  settle l 1;
  let final = Option.get (Ledger.spender_of l (Tx.outpoint_of upd 0)) in
  check_b "settlement splits 500/500" true
    (List.map (fun (o : Tx.output) -> o.value) final.Tx.outputs = [ 500; 500 ])

let test_eltoo_override_old_update () =
  let l, rng = fresh () in
  let ch = Eltoo.create ~ledger:l ~rng ~bal_a:700 ~bal_b:300 () in
  let old0 = Eltoo.update ch ~bal_a:600 ~bal_b:400 in
  ignore (Eltoo.update ch ~bal_a:100 ~bal_b:900);
  (* the cheater publishes the old state-0 update *)
  let old_tx =
    Eltoo.complete_update ch old0 ~from:`Funding
      ~outpoint:(Eltoo.funding_outpoint ch)
  in
  Ledger.post l old_tx ~delay:0;
  settle l 1;
  (* the victim overrides it with the latest update before T expires *)
  let latest =
    Eltoo.latest_update_completed ch ~from:(`Update 0)
      ~outpoint:(Tx.outpoint_of old_tx 0)
  in
  Ledger.post l latest ~delay:0;
  settle l 1;
  check_b "latest overrode old" true
    (Ledger.is_unspent l (Tx.outpoint_of latest 0));
  (* and the OLD settlement cannot spend the NEW update output *)
  let stale_settlement =
    Eltoo.complete_settlement ch
      ( Tx.make ~locktime:ch.Eltoo.s0 ~inputs:[] ~outputs:[] (),
        ("", "") )
      ~i:0
      ~outpoint:(Tx.outpoint_of latest 0)
  in
  check_b "stale settlement invalid" true
    (Ledger.validate l stale_settlement <> Ok ())

let test_eltoo_old_update_cannot_spend_newer () =
  let l, rng = fresh () in
  let ch = Eltoo.create ~ledger:l ~rng ~bal_a:700 ~bal_b:300 () in
  let old0 = Eltoo.update ch ~bal_a:600 ~bal_b:400 in
  ignore (Eltoo.update ch ~bal_a:100 ~bal_b:900);
  let latest =
    Eltoo.latest_update_completed ch ~from:`Funding
      ~outpoint:(Eltoo.funding_outpoint ch)
  in
  Ledger.post l latest ~delay:0;
  settle l 1;
  (* state-1 update cannot spend the state-2 output: CLTV ordering *)
  let stale =
    Eltoo.complete_update ch old0 ~from:(`Update ch.Eltoo.sn)
      ~outpoint:(Tx.outpoint_of latest 0)
  in
  check_b "old update rejected on newer output" true
    (Ledger.validate l stale <> Ok ())

let test_eltoo_storage_constant () =
  let l, rng = fresh () in
  let ch = Eltoo.create ~ledger:l ~rng ~bal_a:700 ~bal_b:300 () in
  ignore (Eltoo.update ch ~bal_a:699 ~bal_b:301);
  let s1 = Eltoo.storage_bytes ch in
  for _ = 1 to 50 do
    ignore (Eltoo.update ch ~bal_a:650 ~bal_b:350)
  done;
  check_i "storage unchanged after 50 updates" s1 (Eltoo.storage_bytes ch)

(* ---------------- Lightning ---------------- *)

let test_lightning_penalty () =
  let l, rng = fresh () in
  let ch = Lightning.create ~ledger:l ~rng ~bal_a:600 ~bal_b:400 () in
  let old_a, _ = Lightning.update ch ~bal_a:100 ~bal_b:900 in
  (* A cheats with her old commit (she had 600) *)
  Ledger.post l old_a ~delay:0;
  settle l 1;
  (* B punishes the to_local output with the revealed secret *)
  match Lightning.penalty ch ~victim:`B ~published:old_a ~revoked_index:0 with
  | None -> Alcotest.fail "no penalty data"
  | Some pen ->
      check_b "penalty valid immediately" true (Ledger.validate l pen = Ok ());
      Ledger.post l pen ~delay:0;
      settle l 1;
      check_b "penalty confirmed" true
        (Ledger.spender_of l (Tx.outpoint_of old_a 0) <> None)

let test_lightning_sweep_after_delay () =
  let l, rng = fresh () in
  let ch = Lightning.create ~ledger:l ~rng ~bal_a:600 ~bal_b:400 () in
  ignore (Lightning.update ch ~bal_a:500 ~bal_b:500);
  let commit = Lightning.commit_of ch `A in
  Ledger.post l commit ~delay:0;
  settle l 1;
  let sweep = Lightning.sweep_to_local ch ~who:`A ~published:commit in
  check_b "sweep blocked before T" true (Ledger.validate l sweep <> Ok ());
  settle l ch.Lightning.rel_lock;
  check_b "sweep valid after T" true (Ledger.validate l sweep = Ok ())

let test_lightning_no_penalty_for_latest () =
  let l, rng = fresh () in
  let ch = Lightning.create ~ledger:l ~rng ~bal_a:600 ~bal_b:400 () in
  ignore (Lightning.update ch ~bal_a:500 ~bal_b:500);
  let latest = Lightning.commit_of ch `A in
  Ledger.post l latest ~delay:0;
  settle l 1;
  check_b "no secret for the latest state" true
    (Lightning.penalty ch ~victim:`B ~published:latest ~revoked_index:ch.Lightning.sn
    = None)

let test_lightning_storage_grows () =
  let l, rng = fresh () in
  let ch = Lightning.create ~ledger:l ~rng ~bal_a:600 ~bal_b:400 () in
  ignore (Lightning.update ch ~bal_a:599 ~bal_b:401);
  let s1 = Lightning.storage_bytes ch ~who:`A in
  for _ = 1 to 50 do
    ignore (Lightning.update ch ~bal_a:550 ~bal_b:450)
  done;
  let s2 = Lightning.storage_bytes ch ~who:`A in
  check_b "storage grows linearly" true (s2 - s1 = 50 * 8);
  check_i "watchtower grows too" ((ch.Lightning.sn) * 40)
    (Lightning.watchtower_bytes ch)

(* ---------------- Generalized ---------------- *)

let test_generalized_punish () =
  let l, rng = fresh () in
  let ch = Generalized.create ~ledger:l ~rng ~bal_a:600 ~bal_b:400 () in
  let old = Generalized.update ch ~bal_a:100 ~bal_b:900 in
  (* A publishes the revoked commit, revealing her publishing witness *)
  let published = Generalized.publish_commit_as_a ch old in
  Ledger.post l published ~delay:0;
  settle l 1;
  check_b "revoked commit on chain" true
    (Ledger.is_unspent l (Tx.outpoint_of published 0));
  (* B extracts the witness and punishes instantly *)
  (match Generalized.punish_as_b ch ~published old with
  | None -> Alcotest.fail "no punish data"
  | Some pen ->
      check_b "punish valid before the CSV delay" true
        (Ledger.validate l pen = Ok ());
      Ledger.post l pen ~delay:0;
      settle l 1;
      let sp = Option.get (Ledger.spender_of l (Tx.outpoint_of published 0)) in
      check_i "B takes all funds" 1000 (Tx.total_output_value sp))

let test_generalized_latest_safe () =
  let l, rng = fresh () in
  let ch = Generalized.create ~ledger:l ~rng ~bal_a:600 ~bal_b:400 () in
  ignore (Generalized.update ch ~bal_a:500 ~bal_b:500);
  let published = Generalized.commit_completed_latest ch in
  Ledger.post l published ~delay:0;
  settle l 1;
  (* split blocked before delta, valid after *)
  let split = Generalized.split_completed ch in
  check_b "split blocked before delay" true (Ledger.validate l split <> Ok ());
  settle l ch.Generalized.rel_lock;
  check_b "split valid after delay" true (Ledger.validate l split = Ok ());
  Ledger.post l split ~delay:0;
  settle l 1;
  let sp = Option.get (Ledger.spender_of l (Tx.outpoint_of published 0)) in
  check_b "split pays 500/500" true
    (List.map (fun (o : Tx.output) -> o.value) sp.Tx.outputs = [ 500; 500 ])

let test_generalized_storage_grows () =
  let l, rng = fresh () in
  let ch = Generalized.create ~ledger:l ~rng ~bal_a:600 ~bal_b:400 () in
  ignore (Generalized.update ch ~bal_a:599 ~bal_b:401);
  let s1 = Generalized.storage_bytes ch ~who:`B in
  for _ = 1 to 40 do
    ignore (Generalized.update ch ~bal_a:550 ~bal_b:450)
  done;
  check_b "storage grows linearly" true
    (Generalized.storage_bytes ch ~who:`B - s1 = 40 * 36)

(* ---------------- cost model ---------------- *)

let test_costmodel_matches_table3 () =
  let weight_at name ~m scenario =
    let s = List.find (fun s -> s.Costmodel.name = name) Costmodel.all in
    let c =
      match scenario with
      | `D -> s.Costmodel.dishonest ~m
      | `N -> s.Costmodel.non_collaborative ~m
    in
    int_of_float (Costmodel.weight c)
  in
  check_i "Daric dishonest = 1239" 1239 (weight_at "Daric" ~m:0 `D);
  check_i "Daric non-collab = 1363" 1363 (weight_at "Daric" ~m:0 `N);
  check_i "Lightning dishonest = 1209" 1209 (weight_at "Lightning" ~m:0 `D);
  check_i "Generalized dishonest = 1342" 1342 (weight_at "Generalized" ~m:0 `D);
  check_i "FPPW dishonest = 2045" 2045 (weight_at "FPPW" ~m:0 `D);
  check_i "Cerberus dishonest = 1798" 1798 (weight_at "Cerberus" ~m:0 `D);
  check_i "Outpost dishonest = 2632" 2632 (weight_at "Outpost" ~m:0 `D);
  check_i "Sleepy dishonest = 2172" 2172 (weight_at "Sleepy" ~m:0 `D);
  check_i "eltoo dishonest = 2268" 2268 (weight_at "eltoo" ~m:0 `D);
  check_i "eltoo non-collab = 1588" 1588 (weight_at "eltoo" ~m:0 `N);
  check_i "eltoo dishonest m=1 = 2964" 2964 (weight_at "eltoo" ~m:1 `D);
  check_i "Daric non-collab m=1 = 2059" 2059 (weight_at "Daric" ~m:1 `N)

(* The paper's headline claims about who wins. *)
let test_costmodel_claims () =
  let w name ~m scenario =
    let s = List.find (fun s -> s.Costmodel.name = name) Costmodel.all in
    Costmodel.weight
      (match scenario with
      | `D -> s.Costmodel.dishonest ~m
      | `N -> s.Costmodel.non_collaborative ~m)
  in
  (* dishonest closure: Daric beats everything for any m >= 1, and
     Lightning too once it has at least one HTLC *)
  List.iter
    (fun m ->
      List.iter
        (fun (s : Costmodel.scheme) ->
          if s.Costmodel.name <> "Daric" && (m = 0 || s.supports_htlc) then
            check_b
              (Fmt.str "Daric dishonest beats %s at m=%d" s.name m)
              true
              (w "Daric" ~m `D <= w s.name ~m `D))
        Costmodel.all)
    [ 1; 5; 10; 100 ];
  (* non-collaborative: Daric beats Generalized, eltoo, FPPW for all m;
     beats Lightning for m > 6 *)
  List.iter
    (fun m ->
      List.iter
        (fun name ->
          check_b
            (Fmt.str "Daric non-collab beats %s at m=%d" name m)
            true
            (w "Daric" ~m `N <= w name ~m `N))
        [ "Generalized"; "eltoo"; "FPPW" ])
    [ 0; 1; 5; 10; 100; 966 ];
  check_b "Lightning cheaper at m=6" true (w "Lightning" ~m:6 `N < w "Daric" ~m:6 `N);
  check_b "Daric cheaper at m=7" true (w "Daric" ~m:7 `N < w "Lightning" ~m:7 `N)

let prop_weights_monotonic_in_m =
  QCheck.Test.make ~name:"closure weight monotone in m" ~count:100
    QCheck.(pair (int_bound 100) (int_bound 100))
    (fun (m1, m2) ->
      let m1, m2 = (min m1 m2, max m1 m2) in
      List.for_all
        (fun (s : Costmodel.scheme) ->
          (not s.Costmodel.supports_htlc)
          || Costmodel.weight (s.non_collaborative ~m:m1)
             <= Costmodel.weight (s.non_collaborative ~m:m2))
        Costmodel.all)



(* ---------------- FPPW ---------------- *)

module Fppw = Daric_schemes.Fppw

let test_fppw_punish () =
  let l, rng = fresh () in
  let ch = Fppw.create ~ledger:l ~rng ~bal_a:600 ~bal_b:400 () in
  let old = Fppw.update ch ~bal_a:100 ~bal_b:900 in
  Ledger.post l old ~delay:0;
  settle l 1;
  (match Fppw.punish ch ~victim:`B ~published:old with
  | None -> Alcotest.fail "no FPPW punish data"
  | Some pen ->
      check_b "punish valid immediately" true (Ledger.validate l pen = Ok ());
      Ledger.post l pen ~delay:0;
      settle l 1;
      (* both commit outputs claimed, cash + collateral to the victim *)
      check_i "cash + collateral claimed" (1000 + 1000)
        (Tx.total_output_value
           (Option.get (Ledger.spender_of l (Tx.outpoint_of old 0)))))

let test_fppw_latest_safe () =
  let l, rng = fresh () in
  let ch = Fppw.create ~ledger:l ~rng ~bal_a:600 ~bal_b:400 () in
  ignore (Fppw.update ch ~bal_a:500 ~bal_b:500);
  let latest = Fppw.commit_latest ch in
  check_b "no punish data for latest" true
    (Fppw.punish ch ~victim:`B ~published:latest = None)

let test_fppw_measured_weight () =
  (* Appendix H.5 quotes 2045 WU for the dishonest closure, but its
     non-witness count for the revocation lists one 41-byte input while
     the witness covers two — our constructed transactions carry both
     inputs, giving 2209 WU. The commit matches exactly. *)
  let l, rng = fresh () in
  let ch = Fppw.create ~ledger:l ~rng ~bal_a:600 ~bal_b:400 () in
  let old = Fppw.update ch ~bal_a:100 ~bal_b:900 in
  check_i "commit witness" 224 (Tx.witness_size old);
  check_i "commit non-witness" 137 (Tx.non_witness_size old);
  Ledger.post l old ~delay:0;
  settle l 1;
  match Fppw.punish ch ~victim:`B ~published:old with
  | Some pen ->
      (* paper says 897, but its 184-byte main-script listing omits the
         split branch's final OP_CHECKMULTISIG — the working script is
         185 bytes, giving 898 *)
      check_i "revocation witness (paper: 897)" 898 (Tx.witness_size pen);
      check_i "revocation carries 2 real inputs" 135 (Tx.non_witness_size pen)
  | None -> Alcotest.fail "no punish data"

let test_fppw_storage_and_ops () =
  let l, rng = fresh () in
  let ch = Fppw.create ~ledger:l ~rng ~bal_a:600 ~bal_b:400 () in
  ignore (Fppw.update ch ~bal_a:599 ~bal_b:401);
  let s1 = Fppw.storage_bytes ch ~who:`A in
  let w1 = Fppw.watchtower_bytes ch in
  for _ = 1 to 20 do
    ignore (Fppw.update ch ~bal_a:550 ~bal_b:450)
  done;
  check_b "party storage grows" true (Fppw.storage_bytes ch ~who:`A > s1);
  check_b "watchtower storage grows" true (Fppw.watchtower_bytes ch > w1);
  let { Daric_schemes.Scheme_intf.signs = s; verifies = v; exps = e } =
    ch.Fppw.ops
  in
  check_b "ops per update 6/10/1" true (s = 21 * 6 && v = 21 * 10 && e = 21)

(* ---------------- Cerberus ---------------- *)

module Cerberus = Daric_schemes.Cerberus

let test_cerberus_punish () =
  let l, rng = fresh () in
  let ch = Cerberus.create ~ledger:l ~rng ~bal_a:600 ~bal_b:400 () in
  let old_a, _ = Cerberus.update ch ~bal_a:100 ~bal_b:900 in
  Ledger.post l old_a ~delay:0;
  settle l 1;
  (match Cerberus.punish ch ~victim:`B ~published:old_a with
  | None -> Alcotest.fail "no Cerberus punish data"
  | Some pen ->
      check_b "punish valid immediately" true (Ledger.validate l pen = Ok ());
      check_i "claims both outputs" 2 (List.length pen.Tx.inputs);
      Ledger.post l pen ~delay:0;
      settle l 1;
      check_i "full cash to victim" 1000 (Tx.total_output_value pen))

let test_cerberus_latest_safe () =
  let l, rng = fresh () in
  let ch = Cerberus.create ~ledger:l ~rng ~bal_a:600 ~bal_b:400 () in
  ignore (Cerberus.update ch ~bal_a:500 ~bal_b:500);
  let latest = Cerberus.commit_of ch `A in
  check_b "no punish data for latest" true
    (Cerberus.punish ch ~victim:`B ~published:latest = None)

let test_cerberus_measured_weight () =
  (* paper: commit 224+137, revocation 534+123 -> 1798 WU; our witness
     carries one extra branch-selector byte per input (536), which the
     paper's count omits *)
  let l, rng = fresh () in
  let ch = Cerberus.create ~ledger:l ~rng ~bal_a:600 ~bal_b:400 () in
  let old_a, _ = Cerberus.update ch ~bal_a:100 ~bal_b:900 in
  check_i "commit witness" 224 (Tx.witness_size old_a);
  check_i "commit non-witness" 137 (Tx.non_witness_size old_a);
  Ledger.post l old_a ~delay:0;
  settle l 1;
  match Cerberus.punish ch ~victim:`B ~published:old_a with
  | Some pen ->
      check_i "revocation witness (paper: 534)" 536 (Tx.witness_size pen);
      check_i "revocation non-witness" 123 (Tx.non_witness_size pen);
      check_i "115-byte output script" 115
        (Daric_script.Script.size
           (Cerberus.output_script ch ~rev_pk1:1 ~rev_pk2:1 ~delayed_pk:1))
  | None -> Alcotest.fail "no punish data"

let test_cerberus_sweep_after_delay () =
  let l, rng = fresh () in
  let ch = Cerberus.create ~ledger:l ~rng ~bal_a:600 ~bal_b:400 () in
  ignore (Cerberus.update ch ~bal_a:500 ~bal_b:500);
  let latest = Cerberus.commit_of ch `A in
  Ledger.post l latest ~delay:0;
  settle l 1;
  (* nobody can claim the outputs through the revocation branch of the
     LATEST state, and the delayed branch only opens after T *)
  check_b "to_local unspent" true (Ledger.is_unspent l (Tx.outpoint_of latest 0))


(* ---------------- Sleepy ---------------- *)

module Sleepy = Daric_schemes.Sleepy

let test_sleepy_punish_before_end () =
  let l, rng = fresh () in
  let ch = Sleepy.create ~t_end:50 ~ledger:l ~rng ~bal_a:600 ~bal_b:400 () in
  let old_a, _ = Sleepy.update ch ~bal_a:100 ~bal_b:900 in
  Ledger.post l old_a ~delay:0;
  settle l 1;
  (* the victim slept for a while, but wakes before T_end *)
  settle l 20;
  (match Sleepy.punish ch ~victim:`B ~published:old_a with
  | None -> Alcotest.fail "no sleepy punish data"
  | Some pen ->
      check_b "punish valid long after publication" true
        (Ledger.validate l pen = Ok ());
      Ledger.post l pen ~delay:0;
      settle l 1;
      check_b "cheater's balance claimed" true
        (Ledger.spender_of l (Tx.outpoint_of old_a 0) <> None))

let test_sleepy_sweep_only_after_end () =
  let l, rng = fresh () in
  let ch = Sleepy.create ~t_end:10 ~ledger:l ~rng ~bal_a:600 ~bal_b:400 () in
  ignore (Sleepy.update ch ~bal_a:500 ~bal_b:500);
  let latest = Sleepy.commit_of ch `A in
  Ledger.post l latest ~delay:0;
  settle l 1;
  let sweep = Sleepy.sweep_own ch ~who:`A ~published:latest in
  check_b "own sweep blocked before T_end" true (Ledger.validate l sweep <> Ok ());
  settle l 10;
  check_b "own sweep valid after T_end" true (Ledger.validate l sweep = Ok ())

let test_sleepy_cheater_wins_after_expiry () =
  (* the lifetime trade-off: if the victim sleeps past T_end, the
     cheater's sweep becomes valid and a race begins *)
  let l, rng = fresh () in
  let ch = Sleepy.create ~t_end:8 ~ledger:l ~rng ~bal_a:600 ~bal_b:400 () in
  (* the cheater keeps her state-0 revocation key alongside the commit *)
  let old_rev_pk = ch.Sleepy.a.Sleepy.rev_current.Daric_core.Keys.pk in
  let old_a, _ = Sleepy.update ch ~bal_a:100 ~bal_b:900 in
  Ledger.post l old_a ~delay:0;
  settle l 1;
  settle l 8 (* victim oversleeps past T_end *);
  let sweep = Sleepy.sweep_own ~rev_pk:old_rev_pk ch ~who:`A ~published:old_a in
  check_b "cheater sweep now valid" true (Ledger.validate l sweep = Ok ());
  Ledger.post l sweep ~delay:0;
  settle l 1;
  (* too late: the punish path is gone *)
  check_b "victim's punish now conflicts" true
    (match Sleepy.punish ch ~victim:`B ~published:old_a with
     | Some pen -> Ledger.validate l pen <> Ok ()
     | None -> false)

let test_sleepy_storage_and_lifetime () =
  let l, rng = fresh () in
  let ch = Sleepy.create ~t_end:1000 ~ledger:l ~rng ~bal_a:600 ~bal_b:400 () in
  ignore (Sleepy.update ch ~bal_a:599 ~bal_b:401);
  let s1 = Sleepy.storage_bytes ch ~who:`A in
  for _ = 1 to 30 do
    ignore (Sleepy.update ch ~bal_a:550 ~bal_b:450)
  done;
  check_b "O(n) party storage" true
    (Sleepy.storage_bytes ch ~who:`A - s1 = 30 * 8);
  settle l 5;
  check_b "lifetime is limited and ticking" true
    (Sleepy.remaining_lifetime ch = 1000 - 5)

(* ---------------- Outpost ---------------- *)

module Outpost = Daric_schemes.Outpost

let test_outpost_punish_via_embedded_data () =
  let l, rng = fresh () in
  let ch = Outpost.create ~ledger:l ~rng ~bal_a:600 ~bal_b:400 () in
  let old_a, _ = Outpost.update ch ~bal_a:100 ~bal_b:900 in
  Ledger.post l old_a ~delay:0;
  settle l 1;
  (match Outpost.punish ch ~victim:`B ~published:old_a with
  | None -> Alcotest.fail "no outpost punish data"
  | Some pen ->
      check_b "punish valid" true (Ledger.validate l pen = Ok ());
      Ledger.post l pen ~delay:0;
      settle l 1;
      check_b "cheater's balance claimed" true
        (Ledger.spender_of l (Tx.outpoint_of old_a 0) <> None))

let test_outpost_punish_deep_state () =
  (* hash-chain descent: punish a state revoked many updates ago *)
  let l, rng = fresh () in
  let ch = Outpost.create ~ledger:l ~rng ~bal_a:600 ~bal_b:400 () in
  let old0, _ = Outpost.update ch ~bal_a:550 ~bal_b:450 in
  for _ = 1 to 20 do
    ignore (Outpost.update ch ~bal_a:500 ~bal_b:500)
  done;
  Ledger.post l old0 ~delay:0;
  settle l 1;
  match Outpost.punish ch ~victim:`B ~published:old0 with
  | None -> Alcotest.fail "no punish data for deep state"
  | Some pen -> check_b "deep punish valid" true (Ledger.validate l pen = Ok ())

let test_outpost_latest_safe () =
  let l, rng = fresh () in
  let ch = Outpost.create ~ledger:l ~rng ~bal_a:600 ~bal_b:400 () in
  ignore (Outpost.update ch ~bal_a:500 ~bal_b:500);
  let latest = Outpost.commit_of ch `A in
  check_b "latest not punishable" true
    (Outpost.punish ch ~victim:`B ~published:latest = None)

let test_outpost_watchtower_constant () =
  let l, rng = fresh () in
  let ch = Outpost.create ~ledger:l ~rng ~bal_a:600 ~bal_b:400 () in
  let w1 = Outpost.watchtower_bytes ch in
  for _ = 1 to 30 do
    ignore (Outpost.update ch ~bal_a:500 ~bal_b:500)
  done;
  check_i "O(log n) watchtower storage (word-size constant)" w1
    (Outpost.watchtower_bytes ch);
  (* embedded data present in every commit *)
  check_b "commits carry embedded data" true
    (Outpost.embedded_values (Outpost.commit_of ch `A) <> None)

(* ---------------- shared closure plumbing ---------------- *)

module I = Daric_schemes.Scheme_intf
module Keys = Daric_core.Keys

let test_ops_add () =
  let o = { I.signs = 1; verifies = 2; exps = 3 } in
  check_b "omitted counts add nothing" true (I.ops_add o = o);
  check_b "each count adds to its own field" true
    (I.ops_add ~signs:3 ~exps:1 o = { I.signs = 4; verifies = 2; exps = 4 });
  check_b "ops_sub undoes ops_add" true
    (I.ops_sub (I.ops_add ~signs:5 ~verifies:6 ~exps:7 o) o
    = { I.signs = 5; verifies = 6; exps = 7 })

(* Cerberus's own-balance sweep, built the way its unilateral closure
   builds it: the delayed branch of the latest commit's output 0. *)
let cerberus_sweep ?locktime (ch : Cerberus.t) ~sk =
  let commit = Cerberus.commit_of ch `A in
  let script =
    Cerberus.output_script ch ~rev_pk1:ch.Cerberus.a.rev_current.Keys.pk
      ~rev_pk2:(List.assoc ch.Cerberus.sn ch.Cerberus.wt_rev).Keys.pk
      ~delayed_pk:ch.Cerberus.a.delayed.Keys.pk
  in
  ( commit,
    I.sweep_delayed ?locktime ~script ~sk ~to_pk:ch.Cerberus.a.main.Keys.pk
      commit )

let test_sweep_delayed_shape () =
  let l, rng = fresh () in
  let ch = Cerberus.create ~ledger:l ~rng ~bal_a:600 ~bal_b:400 () in
  ignore (Cerberus.update ch ~bal_a:550 ~bal_b:450);
  let commit, sweep = cerberus_sweep ch ~sk:ch.Cerberus.a.delayed.Keys.sk in
  check_b "spends output 0 of the commit" true
    (List.map (fun (i : Tx.input) -> i.Tx.prevout) sweep.Tx.inputs
    = [ Tx.outpoint_of commit 0 ]);
  check_b "pays the full output to the owner's key" true
    (sweep.Tx.outputs
    = [ I.pay_to_pk ~value:(List.hd commit.Tx.outputs).Tx.value
          ch.Cerberus.a.main.Keys.pk ]);
  (match sweep.Tx.witnesses with
  | [ [ Tx.Data sg; Tx.Data ""; Tx.Wscript _ ] ] ->
      check_b "one signature" true (String.length sg > 0)
  | _ -> Alcotest.fail "witness is not [sig; \"\"; script]");
  check_i "no locktime unless asked" 0 sweep.Tx.locktime;
  let _, timed =
    cerberus_sweep ~locktime:77 ch ~sk:ch.Cerberus.a.delayed.Keys.sk
  in
  check_i "locktime passed through" 77 timed.Tx.locktime

let test_sweep_delayed_waits_window () =
  let l, rng = fresh () in
  let ch = Cerberus.create ~ledger:l ~rng ~bal_a:600 ~bal_b:400 () in
  ignore (Cerberus.update ch ~bal_a:500 ~bal_b:500);
  let commit, sweep = cerberus_sweep ch ~sk:ch.Cerberus.a.delayed.Keys.sk in
  Ledger.post l commit ~delay:0;
  settle l 1;
  check_b "sweep blocked inside the dispute window" true
    (Ledger.validate l sweep <> Ok ());
  settle l ch.Cerberus.rel_lock;
  check_b "sweep valid after the window" true (Ledger.validate l sweep = Ok ())

let test_sweep_delayed_wrong_key () =
  let l, rng = fresh () in
  let ch = Cerberus.create ~ledger:l ~rng ~bal_a:600 ~bal_b:400 () in
  ignore (Cerberus.update ch ~bal_a:500 ~bal_b:500);
  let commit, sweep = cerberus_sweep ch ~sk:ch.Cerberus.b.delayed.Keys.sk in
  Ledger.post l commit ~delay:0;
  settle l (1 + ch.Cerberus.rel_lock);
  check_b "counter-party key cannot sweep the delayed branch" true
    (Ledger.validate l sweep <> Ok ())

let () =
  Alcotest.run "daric-schemes"
    [ ( "eltoo",
        [ Alcotest.test_case "close with latest state" `Quick test_eltoo_close_latest;
          Alcotest.test_case "override old update" `Quick
            test_eltoo_override_old_update;
          Alcotest.test_case "state ordering" `Quick
            test_eltoo_old_update_cannot_spend_newer;
          Alcotest.test_case "O(1) storage" `Quick test_eltoo_storage_constant ] );
      ( "lightning",
        [ Alcotest.test_case "penalty on revoked commit" `Quick
            test_lightning_penalty;
          Alcotest.test_case "sweep after delay" `Quick
            test_lightning_sweep_after_delay;
          Alcotest.test_case "latest commit safe" `Quick
            test_lightning_no_penalty_for_latest;
          Alcotest.test_case "O(n) storage" `Quick test_lightning_storage_grows ] );
      ( "generalized",
        [ Alcotest.test_case "adaptor punish" `Quick test_generalized_punish;
          Alcotest.test_case "latest commit safe" `Quick test_generalized_latest_safe;
          Alcotest.test_case "O(n) storage" `Quick test_generalized_storage_grows ] );
      ( "costmodel",
        [ Alcotest.test_case "table 3 values" `Quick test_costmodel_matches_table3;
          Alcotest.test_case "paper claims" `Quick test_costmodel_claims;
          QCheck_alcotest.to_alcotest prop_weights_monotonic_in_m ] );
      ( "fppw",
        [ Alcotest.test_case "punish" `Quick test_fppw_punish;
          Alcotest.test_case "latest safe" `Quick test_fppw_latest_safe;
          Alcotest.test_case "measured weight" `Quick test_fppw_measured_weight;
          Alcotest.test_case "storage and ops" `Quick test_fppw_storage_and_ops ] );
      ( "cerberus",
        [ Alcotest.test_case "punish" `Quick test_cerberus_punish;
          Alcotest.test_case "latest safe" `Quick test_cerberus_latest_safe;
          Alcotest.test_case "measured weight" `Quick test_cerberus_measured_weight;
          Alcotest.test_case "sweep delay" `Quick test_cerberus_sweep_after_delay ] );
      ( "sleepy",
        [ Alcotest.test_case "punish before T_end" `Quick
            test_sleepy_punish_before_end;
          Alcotest.test_case "sweep after T_end" `Quick
            test_sleepy_sweep_only_after_end;
          Alcotest.test_case "cheater wins after expiry" `Quick
            test_sleepy_cheater_wins_after_expiry;
          Alcotest.test_case "storage and lifetime" `Quick
            test_sleepy_storage_and_lifetime ] );
      ( "outpost",
        [ Alcotest.test_case "punish via embedded data" `Quick
            test_outpost_punish_via_embedded_data;
          Alcotest.test_case "deep-state punish" `Quick
            test_outpost_punish_deep_state;
          Alcotest.test_case "latest safe" `Quick test_outpost_latest_safe;
          Alcotest.test_case "constant watchtower storage" `Quick
            test_outpost_watchtower_constant ] );
      ( "plumbing",
        [ Alcotest.test_case "ops_add" `Quick test_ops_add;
          Alcotest.test_case "delayed sweep shape" `Quick
            test_sweep_delayed_shape;
          Alcotest.test_case "delayed sweep waits the window" `Quick
            test_sweep_delayed_waits_window;
          Alcotest.test_case "delayed sweep needs the owner's key" `Quick
            test_sweep_delayed_wrong_key ] ) ]
