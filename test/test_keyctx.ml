(* Keyed crypto contexts: keyed/plain differentials and the bounded
   pool's pin/release/eviction contract.

   Every keyed operation must agree pointwise with its plain oracle —
   [sign_keyed] bit-identically, the verifies verdict-identically,
   including adaptor-completed signatures, SIGHASH-flagged wire
   encodings and strict padding rejection. The dune alias runs this
   binary under DPOOL_DOMAINS ∈ {1, 2, 4}; the ledger verifies each
   witness inline on the calling domain, so the verdicts must not
   depend on the worker-pool size. *)

module Group = Daric_crypto.Group
module Schnorr = Daric_crypto.Schnorr
module Keyctx = Daric_crypto.Keyctx
module Adaptor = Daric_crypto.Adaptor
module Sighash = Daric_tx.Sighash
module Rng = Daric_util.Rng
module I = Daric_schemes.Scheme_intf
module Registry = Daric_schemes.Registry

let check_b = Alcotest.(check bool)
let check_i = Alcotest.(check int)

(* Fresh keys per call; contexts built directly (no pool). *)
let keygen seed =
  let rng = Rng.create ~seed in
  Schnorr.keygen rng

(* ------------------------------------------------------------------ *)
(* Directed unit tests.                                                *)

let test_context_basics () =
  let sk, pk = keygen 11 in
  let kc = Keyctx.create ~sk pk in
  check_b "valid key" true (Keyctx.is_valid kc);
  check_b "pk preserved" true (Keyctx.pk kc = pk);
  check_b "no table before first use" false (Keyctx.has_table kc);
  ignore (Keyctx.table kc);
  check_b "table retained after first use" true (Keyctx.has_table kc);
  check_i "table cost as documented" Group.precomp_bytes Keyctx.table_bytes;
  (* a verify-only context refuses to sign *)
  let vc = Keyctx.create pk in
  check_b "verify-only has no sk" true (Keyctx.sk vc = None);
  (match Schnorr.sign_keyed vc "m" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "sign_keyed accepted a verify-only context");
  (* an invalid (non-subgroup) key builds an invalid context that
     rejects everything, like verify does *)
  let bad =
    let rec first_non_element c =
      if Group.is_element_fast c then first_non_element (c + 1) else c
    in
    first_non_element 2
  in
  let bc = Keyctx.create bad in
  check_b "invalid context" false (Keyctx.is_valid bc);
  let sg = Schnorr.sign sk "m" in
  check_b "keyed rejects under invalid key" false
    (Schnorr.verify_keyed bc "m" sg);
  check_b "plain rejects under invalid key too" false
    (Schnorr.verify bad "m" sg)

let test_pool_pin_release () =
  Keyctx.clear ();
  let _, pk = keygen 21 in
  check_b "peek never inserts" true (Keyctx.peek pk = None);
  check_i "empty pool" 0 (Keyctx.stats ()).Keyctx.live;
  check_b "pin inserts" true (Keyctx.pin pk);
  check_b "now resident" true (Keyctx.peek pk <> None);
  check_i "one pinned" 1 (Keyctx.stats ()).Keyctx.pinned;
  check_b "second pin on same key" true (Keyctx.pin pk);
  Keyctx.release pk;
  check_i "still pinned at refcount 1" 1 (Keyctx.stats ()).Keyctx.pinned;
  Keyctx.release pk;
  check_i "unpinned at refcount 0" 0 (Keyctx.stats ()).Keyctx.pinned;
  check_b "entry stays as cache after release" true (Keyctx.peek pk <> None);
  Keyctx.release pk;
  check_i "release past zero is a no-op" 0 (Keyctx.stats ()).Keyctx.pinned;
  Keyctx.clear ();
  check_i "clear empties the pool" 0 (Keyctx.stats ()).Keyctx.live

(* Opening far more "channels" than the pool holds: pins saturate,
   releases stay balanced, and the pool tracks LIVE keys, never
   lifetime. *)
let test_pool_saturation_churn () =
  Keyctx.clear ();
  let n = 10_000 in
  let pks = Array.init n (fun i -> Group.pow_g (i + 2)) in
  (* interleaved open/close: key i closes at i + 64 *)
  let window = 64 in
  let pinned = Array.make n false in
  for i = 0 to n + window - 1 do
    if i < n then pinned.(i) <- Keyctx.pin pks.(i);
    let j = i - window in
    if j >= 0 then Keyctx.release pks.(j);
    let s = Keyctx.stats () in
    if s.Keyctx.live > Keyctx.capacity then
      Alcotest.failf "pool exceeded capacity: %d live at step %d"
        s.Keyctx.live i
  done;
  let s = Keyctx.stats () in
  check_i "no pins left after all closes" 0 s.Keyctx.pinned;
  check_b "pool bounded by capacity, not lifetime"
    true (s.Keyctx.live <= Keyctx.capacity);
  (* every pin inside the first [capacity] was honoured *)
  check_b "early pins were honoured" true
    (Array.for_all (fun b -> b) (Array.sub pinned 0 Keyctx.capacity));
  Keyctx.clear ()

(* Post-eviction verification: evicting a key's context must not change
   any verdict — the pooled path falls back to plain, and re-inserting
   rebuilds the table transparently. *)
let test_eviction_rebuild () =
  Keyctx.clear ();
  let sk, pk = keygen 31 in
  let msg = "state-17" in
  let sg = Schnorr.sign sk msg in
  check_b "pin" true (Keyctx.pin pk);
  check_b "pooled verify (keyed)" true (Schnorr.verify_pooled pk msg sg);
  check_b "table built by pooled verify" true
    (match Keyctx.peek pk with Some kc -> Keyctx.has_table kc | None -> false);
  Keyctx.release pk;
  (* flood the pool with fresh cached entries to force LRU eviction *)
  for i = 0 to Keyctx.capacity + 32 do
    ignore (Keyctx.find (Group.pow_g (100_000 + i)))
  done;
  check_b "evicted after release + pressure" true (Keyctx.peek pk = None);
  check_b "post-eviction verdict identical (plain fallback)" true
    (Schnorr.verify_pooled pk msg sg);
  check_b "tampered still rejected post-eviction" false
    (Schnorr.verify_pooled pk (msg ^ "!") sg);
  (* re-entering the pool rebuilds the table with the same verdict *)
  let kc = Keyctx.find pk in
  check_b "rebuilt context verifies identically" true
    (Schnorr.verify_keyed kc msg sg);
  check_b "table rebuilt" true (Keyctx.has_table kc);
  Keyctx.clear ()

let test_wire_and_flags () =
  Keyctx.clear ();
  let sk, pk = keygen 41 in
  let kc = Keyctx.create ~sk pk in
  let pk_bytes = Schnorr.encode_public_key pk in
  let msg = "wire-msg" in
  List.iter
    (fun flag ->
      let plain = Sighash.sign_message sk flag msg in
      let keyed = Sighash.sign_message_keyed kc flag msg in
      check_b "flagged signature bytes identical" true
        (String.equal plain keyed);
      check_b "plain verifies" true (Sighash.verify_message pk_bytes msg keyed);
      check_b "pooled verifies" true
        (Sighash.verify_message_pooled pk_bytes msg keyed);
      (* strict padding: flipping a padding byte must reject on both *)
      let b = Bytes.of_string keyed in
      Bytes.set b 40 '\001';
      let padded = Bytes.unsafe_to_string b in
      check_b "plain rejects loose padding" false
        (Sighash.verify_message pk_bytes msg padded);
      check_b "pooled rejects loose padding" false
        (Sighash.verify_message_pooled pk_bytes msg padded))
    Sighash.[ All; Anyprevout; Anyprevout_single ];
  (* pooled wire path with the key resident *)
  check_b "pin" true (Keyctx.pin ~sk pk);
  let sigb = Schnorr.sign_bytes_keyed kc msg in
  check_b "resident pooled verify_bytes" true
    (Schnorr.verify_bytes_pooled pk_bytes msg sigb);
  check_b "matches plain verify_bytes" true
    (Schnorr.verify_bytes pk_bytes msg sigb);
  Keyctx.clear ()

let test_adaptor_keyed () =
  let rng = Rng.create ~seed:51 in
  let sk, pk = Schnorr.keygen rng in
  let kc = Keyctx.create ~sk pk in
  ignore (Keyctx.table kc);
  let y, ys = Adaptor.gen_statement rng in
  let msg = "adaptor-msg" in
  let ps = Adaptor.pre_sign sk ys msg in
  check_b "pre-signature verifies" true (Adaptor.pre_verify pk ys msg ps);
  let full = Adaptor.adapt ps y in
  check_b "adapted sig: plain accepts" true (Schnorr.verify pk msg full);
  check_b "adapted sig: keyed accepts" true (Schnorr.verify_keyed kc msg full);
  check_b "witness extraction round-trips" true (Adaptor.extract full ps = y);
  let wrong = Adaptor.adapt ps (Group.scalar_add y 1) in
  check_b "wrong witness: plain rejects" false (Schnorr.verify pk msg wrong);
  check_b "wrong witness: keyed rejects" false
    (Schnorr.verify_keyed kc msg wrong)

(* End-to-end under the configured DPOOL_DOMAINS: a full Daric channel
   lifecycle (open, updates, dishonest close with punishment) runs the
   ledger's inline witness checks over pooled contexts. *)
let test_scheme_end_to_end () =
  let (module S : I.SCHEME) = Registry.find_exn "Daric" in
  let env = I.make_env () in
  match S.open_channel env I.default_config with
  | Error e -> Alcotest.failf "open: %s" (I.error_to_string e)
  | Ok ch ->
      for k = 1 to 5 do
        match S.update ch ~bal_a:(500_000 - (1000 * k)) ~bal_b:(500_000 + (1000 * k)) with
        | Ok () -> ()
        | Error e -> Alcotest.failf "update %d: %s" k (I.error_to_string e)
      done;
      match S.dishonest_close ch with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "dishonest close: %s" (I.error_to_string e)

(* ------------------------------------------------------------------ *)
(* QCheck differentials.                                               *)

let prop_sign_keyed_bit_identical =
  QCheck.Test.make ~name:"sign_keyed = sign (bit-identical)" ~count:300
    QCheck.(pair small_nat (string_of_size Gen.(0 -- 200)))
    (fun (seed, msg) ->
      let sk, pk = keygen (seed + 1) in
      let kc = Keyctx.create ~sk pk in
      Schnorr.sign_keyed kc msg = Schnorr.sign sk msg)

let prop_verify_keyed_agrees =
  QCheck.Test.make
    ~name:"verify_keyed = verify (valid, tampered and cross-key)" ~count:300
    QCheck.(triple small_nat small_nat (string_of_size Gen.(0 -- 100)))
    (fun (seed, tamper, msg) ->
      let sk, pk = keygen (seed + 1) in
      let sk2, pk2 = keygen (seed + 100_000) in
      ignore sk2;
      let kc = Keyctx.create pk and kc2 = Keyctx.create pk2 in
      let sg = Schnorr.sign sk msg in
      (* valid, tampered-s, tampered-r, wrong-key: keyed must track
         plain on every one of them *)
      let cases =
        [ (pk, kc, sg);
          (pk, kc, { sg with Schnorr.s = Group.scalar_add sg.Schnorr.s (1 + tamper) });
          (pk, kc, { sg with Schnorr.r = Group.pow_g (1 + tamper) });
          (pk2, kc2, sg) ]
      in
      List.for_all
        (fun (pk, kc, sg) ->
          Schnorr.verify_keyed kc msg sg = Schnorr.verify pk msg sg
          && Schnorr.verify pk msg sg = Schnorr.verify_naive pk msg sg)
        cases)

(* Pool residency must never change a pooled verdict: pin a random
   subset of the keys, compare against the plain oracle. *)
let prop_pooled_residency_irrelevant =
  QCheck.Test.make
    ~name:"verify_pooled invariant under pinning"
    ~count:120
    QCheck.(
      pair small_nat (list_of_size Gen.(0 -- 12) (triple small_nat bool bool)))
    (fun (seed, spec) ->
      Keyctx.clear ();
      let items =
        List.mapi
          (fun i (msg_seed, corrupt, pin) ->
            let sk, pk = keygen (seed + (1000 * i) + 1) in
            let msg = Printf.sprintf "p-%d" msg_seed in
            let sg = Schnorr.sign sk msg in
            let sg =
              if corrupt then { sg with Schnorr.r = Group.pow_g (i + 1) }
              else sg
            in
            if pin then ignore (Keyctx.pin pk);
            (pk, msg, sg))
          spec
      in
      let ok =
        List.for_all
          (fun (pk, m, s) ->
            Schnorr.verify_pooled pk m s = Schnorr.verify pk m s)
          items
      in
      Keyctx.clear ();
      ok)

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "daric-keyctx"
    [ ( "context",
        [ Alcotest.test_case "basics and invalid keys" `Quick
            test_context_basics;
          Alcotest.test_case "adaptor signatures through keyed verify" `Quick
            test_adaptor_keyed;
          Alcotest.test_case "wire encodings, SIGHASH flags, padding" `Quick
            test_wire_and_flags ] );
      ( "pool",
        [ Alcotest.test_case "pin/release/peek contract" `Quick
            test_pool_pin_release;
          Alcotest.test_case "10k-channel churn stays bounded" `Quick
            test_pool_saturation_churn;
          Alcotest.test_case "eviction rebuilds transparently" `Quick
            test_eviction_rebuild ] );
      ( "end-to-end",
        [ Alcotest.test_case "daric lifecycle over pooled contexts" `Quick
            test_scheme_end_to_end ] );
      ( "differential",
        [ qc prop_sign_keyed_bit_identical;
          qc prop_verify_keyed_agrees;
          qc prop_pooled_residency_irrelevant ] ) ]
