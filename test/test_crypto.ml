(* Crypto substrate tests: FIPS 180-4 and RIPEMD-160 vectors, group
   laws, Schnorr signatures and Schnorr adaptor signatures. *)

module Sha256 = Daric_crypto.Sha256
module Ripemd160 = Daric_crypto.Ripemd160
module Hash = Daric_crypto.Hash
module Group = Daric_crypto.Group
module Schnorr = Daric_crypto.Schnorr
module Adaptor = Daric_crypto.Adaptor
module Rng = Daric_util.Rng

let check_s = Alcotest.(check string)
let check_b = Alcotest.(check bool)

let test_sha256_vectors () =
  check_s "empty" "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    (Sha256.hexdigest "");
  check_s "abc" "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    (Sha256.hexdigest "abc");
  check_s "448-bit"
    "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
    (Sha256.hexdigest "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq");
  check_s "896-bit"
    "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1"
    (Sha256.hexdigest
       "abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmno\
        ijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu");
  check_s "million a"
    "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
    (Sha256.hexdigest (String.make 1_000_000 'a'))

(* Padding boundaries: lengths 55, 56, 63, 64, 65 exercise the one- vs
   two-block padding logic. Reference values from any standard
   implementation (python hashlib). *)
let test_sha256_padding_boundaries () =
  let cases =
    [ (55, "9f4390f8d30c2dd92ec9f095b65e2b9ae9b0a925a5258e241c9f1e910f734318");
      (56, "b35439a4ac6f0948b6d6f9e3c6af0f5f590ce20f1bde7090ef7970686ec6738a");
      (63, "7d3e74a05d7db15bce4ad9ec0658ea98e3f06eeecf16b4c6fff2da457ddc2f34");
      (64, "ffe054fe7ae0cb6dc65c3af9b61d5209f439851db43d0ba5997337df154668eb");
      (65, "635361c48bb9eab14198e76ea8ab7f1a41685d6ad62aa9146d301d4f17eb0ae0") ]
  in
  List.iter
    (fun (n, expected) ->
      check_s (Fmt.str "len %d" n) expected (Sha256.hexdigest (String.make n 'a')))
    cases

let test_ripemd160_vectors () =
  check_s "empty" "9c1185a5c5e9fc54612808977ee8f548b2258d31" (Ripemd160.hexdigest "");
  check_s "a" "0bdc9d2d256b3ee9daae347be6f4dc835a467ffe" (Ripemd160.hexdigest "a");
  check_s "abc" "8eb208f7e05d987a9b044a8e98c6b087f15a0bfc" (Ripemd160.hexdigest "abc");
  check_s "message digest" "5d0689ef49d2fae572b881b123a85ffa21595f36"
    (Ripemd160.hexdigest "message digest");
  check_s "a..z" "f71c27109c692c1b56bbdceb5b9d2865b3708dbc"
    (Ripemd160.hexdigest "abcdefghijklmnopqrstuvwxyz");
  check_s "digits"
    "9b752e45573d4b39f4dbd3323cab82bf63326bfb"
    (Ripemd160.hexdigest
       (String.concat "" (List.init 8 (fun _ -> "1234567890"))))

let test_hash_combinators () =
  check_b "hash256 = sha256^2" true
    (Hash.hash256 "x" = Sha256.digest (Sha256.digest "x"));
  check_b "hash160 = ripemd160(sha256)" true
    (Hash.hash160 "x" = Ripemd160.digest (Sha256.digest "x"));
  check_b "tagged domain separation" true
    (Hash.tagged "a" "msg" <> Hash.tagged "b" "msg")

let test_group_laws () =
  check_b "p = 2q+1" true (Group.p = (2 * Group.q) + 1);
  check_b "g in subgroup" true (Group.is_element Group.g);
  check_b "g^q = 1" true (Group.pow Group.g Group.q = 1);
  (* exponent laws on a sample *)
  let rng = Rng.create ~seed:99 in
  for _ = 1 to 50 do
    let a = 1 + Rng.int rng (Group.q - 1) in
    let b = 1 + Rng.int rng (Group.q - 1) in
    check_b "g^(a+b) = g^a g^b" true
      (Group.pow Group.g (Group.scalar_add a b)
      = Group.mul (Group.pow Group.g a) (Group.pow Group.g b));
    let x = Group.pow Group.g a in
    check_b "x * x^-1 = 1" true (Group.mul x (Group.inv x) = 1)
  done

let test_schnorr_roundtrip () =
  let rng = Rng.create ~seed:1 in
  for _ = 1 to 20 do
    let sk, pk = Schnorr.keygen rng in
    let msg = Rng.bytes rng 40 in
    let sg = Schnorr.sign sk msg in
    check_b "verifies" true (Schnorr.verify pk msg sg);
    check_b "wrong message fails" false (Schnorr.verify pk (msg ^ "x") sg);
    let sk2, pk2 = Schnorr.keygen rng in
    ignore sk2;
    check_b "wrong key fails" false (Schnorr.verify pk2 msg sg)
  done

let test_schnorr_encoding () =
  let rng = Rng.create ~seed:2 in
  let sk, pk = Schnorr.keygen rng in
  let enc = Schnorr.encode_public_key pk in
  Alcotest.(check int) "pubkey is 33 bytes" 33 (String.length enc);
  check_b "pubkey roundtrip" true (Schnorr.decode_public_key enc = Some pk);
  let sg = Schnorr.sign sk "m" in
  let senc = Schnorr.encode_signature sg in
  Alcotest.(check int) "signature is 73 bytes" 73 (String.length senc);
  check_b "sig roundtrip" true (Schnorr.decode_signature senc = Some sg);
  check_b "bytes verify" true (Schnorr.verify_bytes enc "m" senc)

let test_signature_determinism () =
  let rng = Rng.create ~seed:3 in
  let sk, _ = Schnorr.keygen rng in
  check_b "deterministic nonce" true (Schnorr.sign sk "m" = Schnorr.sign sk "m");
  check_b "distinct messages, distinct sigs" true
    (Schnorr.sign sk "m" <> Schnorr.sign sk "n")

let test_adaptor () =
  let rng = Rng.create ~seed:4 in
  for _ = 1 to 20 do
    let sk, pk = Schnorr.keygen rng in
    let y, ys = Adaptor.gen_statement rng in
    let msg = Rng.bytes rng 32 in
    let ps = Adaptor.pre_sign sk ys msg in
    check_b "pre-verifies" true (Adaptor.pre_verify pk ys msg ps);
    (* a pre-signature is NOT a valid signature *)
    check_b "pre-sig not full sig" false
      (Schnorr.verify pk msg { Schnorr.r = ps.Adaptor.r; s = ps.Adaptor.s_pre });
    let full = Adaptor.adapt ps y in
    check_b "adapted verifies" true (Schnorr.verify pk msg full);
    Alcotest.(check int) "witness extraction" y (Adaptor.extract full ps)
  done

let test_adaptor_wrong_statement () =
  let rng = Rng.create ~seed:5 in
  let sk, pk = Schnorr.keygen rng in
  let _, ys = Adaptor.gen_statement rng in
  let y2, ys2 = Adaptor.gen_statement rng in
  let ps = Adaptor.pre_sign sk ys "m" in
  check_b "pre-verify with wrong statement fails" false
    (Adaptor.pre_verify pk ys2 "m" ps);
  check_b "adapting with wrong witness fails" false
    (Schnorr.verify pk "m" (Adaptor.adapt ps y2))

(* qcheck properties *)
let prop_sign_verify =
  QCheck.Test.make ~name:"schnorr sign/verify for arbitrary messages"
    ~count:200
    QCheck.(pair small_nat (string_of_size Gen.(0 -- 200)))
    (fun (seed, msg) ->
      let rng = Rng.create ~seed:(seed + 1) in
      let sk, pk = Schnorr.keygen rng in
      Schnorr.verify pk msg (Schnorr.sign sk msg))

let prop_group_assoc =
  QCheck.Test.make ~name:"group multiplication associativity" ~count:500
    QCheck.(triple pos_int pos_int pos_int)
    (fun (a, b, c) ->
      let f x = 1 + (x mod (Group.p - 1)) in
      let a = f a and b = f b and c = f c in
      Group.mul (Group.mul a b) c = Group.mul a (Group.mul b c))

let prop_hex_roundtrip =
  QCheck.Test.make ~name:"hex roundtrip" ~count:500
    QCheck.(string_of_size Gen.(0 -- 100))
    (fun s -> Daric_util.Hex.decode (Daric_util.Hex.encode s) = s)

(* ------------------------------------------------------------------ *)
(* Fast-path vs reference-path agreement.                              *)

let prop_pow_g =
  QCheck.Test.make ~name:"pow_g agrees with pow" ~count:500 QCheck.int
    (fun e ->
      let e = ((e mod Group.q) + Group.q) mod Group.q in
      Group.pow_g e = Group.pow Group.g e)

let prop_pow_precomp =
  QCheck.Test.make ~name:"pow_precomp agrees with pow" ~count:200
    QCheck.(pair pos_int pos_int)
    (fun (b, e) ->
      let base = Group.pow_g (1 + (b mod (Group.q - 1))) in
      let e = e mod Group.q in
      Group.pow_precomp (Group.precompute base) e = Group.pow base e)

let prop_dbl_pow =
  QCheck.Test.make ~name:"dbl_pow agrees with two pows" ~count:300
    QCheck.(quad pos_int pos_int pos_int pos_int)
    (fun (a, ea, b, eb) ->
      let elt x = Group.pow_g (1 + (x mod (Group.q - 1))) in
      let a = elt a and b = elt b in
      let ea = ea mod Group.q and eb = eb mod Group.q in
      Group.dbl_pow a ea b eb = Group.mul (Group.pow a ea) (Group.pow b eb))

let prop_multi_pow =
  QCheck.Test.make ~name:"multi_pow agrees with folded pows" ~count:100
    QCheck.(list_of_size Gen.(0 -- 12) (pair pos_int pos_int))
    (fun raw ->
      let terms =
        List.map
          (fun (b, e) ->
            (Group.pow_g (1 + (b mod (Group.q - 1))), e mod Group.q))
          raw
      in
      Group.multi_pow terms
      = List.fold_left
          (fun acc (b, e) -> Group.mul acc (Group.pow b e))
          1 terms)

let prop_membership_fast =
  QCheck.Test.make ~name:"is_element_fast agrees with is_element"
    ~count:500 QCheck.int (fun x ->
      let x = 1 + (abs x mod (Group.p + 5)) in
      Group.is_element_fast x = Group.is_element x)

let test_membership_edge_cases () =
  (* subgroup members are exactly the quadratic residues *)
  check_b "g member (fast)" true (Group.is_element_fast Group.g);
  check_b "1 member" true (Group.is_element_fast 1);
  (* p = 3 mod 4, so -1 = p-1 is a non-residue: outside the subgroup *)
  check_b "p-1 not member (fast)" false (Group.is_element_fast (Group.p - 1));
  check_b "p-1 not member (reference)" false (Group.is_element (Group.p - 1));
  check_b "0 rejected" false (Group.is_element_fast 0);
  check_b "p rejected" false (Group.is_element_fast Group.p);
  let rng = Rng.create ~seed:11 in
  for _ = 1 to 200 do
    (* g^x is always a member; g^x * (p-1) never is *)
    let m = Group.pow_g (1 + Rng.int rng (Group.q - 1)) in
    check_b "member accepted" true (Group.is_element_fast m);
    let nm = Group.mul m (Group.p - 1) in
    check_b "non-member rejected (fast)" false (Group.is_element_fast nm);
    check_b "non-member rejected (reference)" false (Group.is_element nm)
  done

let prop_tagged_cache =
  QCheck.Test.make ~name:"tagged agrees with tagged_uncached" ~count:300
    QCheck.(pair (string_of_size Gen.(0 -- 20)) (string_of_size Gen.(0 -- 100)))
    (fun (tag, msg) -> Hash.tagged tag msg = Hash.tagged_uncached tag msg)

let prop_verify_equiv =
  QCheck.Test.make ~name:"verify agrees with verify_naive" ~count:200
    QCheck.(pair small_nat (string_of_size Gen.(0 -- 80)))
    (fun (seed, msg) ->
      let rng = Rng.create ~seed:(seed + 7) in
      let sk, pk = Schnorr.keygen rng in
      let sg = Schnorr.sign sk msg in
      (* valid signature: both accept *)
      Schnorr.verify pk msg sg = Schnorr.verify_naive pk msg sg
      && Schnorr.verify pk msg sg
      (* corrupted s: both reject *)
      && (let bad = { sg with Schnorr.s = Group.scalar_add sg.Schnorr.s 1 } in
          Schnorr.verify pk msg bad = Schnorr.verify_naive pk msg bad
          && not (Schnorr.verify pk msg bad))
      (* corrupted R: both reject *)
      && (let bad = { sg with Schnorr.r = Group.pow_g 12345 } in
          Schnorr.verify pk msg bad = Schnorr.verify_naive pk msg bad
          && not (Schnorr.verify pk msg bad))
      (* wrong message: both reject *)
      && Schnorr.verify pk (msg ^ "!") sg
         = Schnorr.verify_naive pk (msg ^ "!") sg
         && not (Schnorr.verify pk (msg ^ "!") sg))

let batch_of_rng rng n =
  List.init n (fun _ ->
      let sk, pk = Schnorr.keygen rng in
      let msg = Rng.bytes rng 32 in
      (pk, msg, Schnorr.sign sk msg))

let corrupt_at i items =
  List.mapi
    (fun j ((pk, msg, sg) as item) ->
      if j = i then (pk, msg, { sg with Schnorr.s = Group.scalar_add sg.Schnorr.s 1 })
      else item)
    items

let test_batch_verify () =
  let rng = Rng.create ~seed:21 in
  check_b "empty batch accepts" true (Schnorr.batch_verify []);
  List.iter
    (fun n ->
      let items = batch_of_rng rng n in
      check_b (Fmt.str "valid batch of %d accepts" n) true
        (Schnorr.batch_verify items);
      (* corrupting any single element must be caught *)
      for i = 0 to min (n - 1) 3 do
        let bad = corrupt_at i items in
        check_b (Fmt.str "batch of %d, bad %d rejects" n i) false
          (Schnorr.batch_verify bad)
      done)
    [ 1; 2; 3; 8; 32 ];
  let items = batch_of_rng rng 10 in
  check_b "several bad elements reject" false
    (Schnorr.batch_verify (corrupt_at 2 (corrupt_at 7 items)))

let prop_batch_verify_equiv =
  QCheck.Test.make ~name:"batch_verify iff all individually verify"
    ~count:100
    QCheck.(pair small_nat (list_of_size Gen.(0 -- 8) bool))
    (fun (seed, flips) ->
      let rng = Rng.create ~seed:(seed + 31) in
      let items =
        List.map
          (fun flip ->
            let sk, pk = Schnorr.keygen rng in
            let msg = Rng.bytes rng 24 in
            let sg = Schnorr.sign sk msg in
            let sg =
              if flip then { sg with Schnorr.s = Group.scalar_add sg.Schnorr.s 1 }
              else sg
            in
            (pk, msg, sg))
          flips
      in
      Schnorr.batch_verify items
      = List.for_all (fun (pk, msg, sg) -> Schnorr.verify pk msg sg) items)

let test_strict_encodings () =
  let rng = Rng.create ~seed:41 in
  let sk, pk = Schnorr.keygen rng in
  let sg = Schnorr.sign sk "m" in
  let senc = Schnorr.encode_signature sg in
  (* the last byte carries the SIGHASH flag: still decodes *)
  let flagged = Bytes.of_string senc in
  Bytes.set flagged 72 '\x01';
  check_b "flag byte allowed" true
    (Schnorr.decode_signature (Bytes.to_string flagged) <> None);
  (* any non-zero interior padding byte is rejected *)
  List.iter
    (fun i ->
      let b = Bytes.of_string senc in
      Bytes.set b i '\x01';
      check_b (Fmt.str "non-zero padding byte %d rejected" i) true
        (Schnorr.decode_signature (Bytes.to_string b) = None))
    [ 8; 9; 40; 70; 71 ];
  check_b "wrong length rejected" true
    (Schnorr.decode_signature (senc ^ "\x00") = None);
  (* public keys: non-zero filler bytes are rejected *)
  let penc = Schnorr.encode_public_key pk in
  List.iter
    (fun i ->
      let b = Bytes.of_string penc in
      Bytes.set b i '\x01';
      check_b (Fmt.str "non-zero filler byte %d rejected" i) true
        (Schnorr.decode_public_key (Bytes.to_string b) = None))
    [ 1; 2; 15; 28 ];
  (* a non-subgroup "key" is rejected by decode *)
  let bad_pk = Bytes.of_string penc in
  Bytes.blit_string (Group.encode_element (Group.p - 1)) 0 bad_pk 29 4;
  check_b "non-subgroup key rejected" true
    (Schnorr.decode_public_key (Bytes.to_string bad_pk) = None)

(* txid/sighash memoization: the cached digest always agrees with a
   fresh recomputation, across distinct construction orders of equal
   bodies and across witness changes (which must not affect the txid). *)
module Tx = Daric_tx.Tx
module Sighash = Daric_tx.Sighash

let test_txid_memo () =
  let rng = Rng.create ~seed:51 in
  for _ = 1 to 50 do
    let mk_out () =
      { Tx.value = 1 + Rng.int rng 100_000;
        spk = Tx.P2wpkh (Rng.bytes rng 20) }
    in
    let mk_in () =
      Tx.input_of_outpoint ~sequence:(Rng.int rng 0xffff)
        { Tx.txid = Rng.bytes rng 32; vout = Rng.int rng 4 }
    in
    let inputs = List.init (1 + Rng.int rng 3) (fun _ -> mk_in ()) in
    let outputs = List.init (1 + Rng.int rng 3) (fun _ -> mk_out ()) in
    let locktime = Rng.int rng 1000 in
    let tx = Tx.make ~inputs ~locktime ~outputs () in
    check_b "txid = txid_uncached" true (Tx.txid tx = Tx.txid_uncached tx);
    (* structurally equal body built separately: same txid *)
    let tx' =
      Tx.make
        ~inputs:(List.map (fun i -> { i with Tx.sequence = i.Tx.sequence }) inputs)
        ~locktime
        ~outputs:(List.map (fun o -> { o with Tx.value = o.Tx.value }) outputs)
        ~witnesses:[ [ Tx.Data "w" ] ] ()
    in
    check_b "equal bodies share txid" true (Tx.txid tx = Tx.txid tx');
    check_b "witness does not affect txid" true
      (Tx.txid tx' = Tx.txid_uncached tx');
    (* sighash messages agree with their uncached recomputation *)
    List.iter
      (fun flag ->
        check_b "sighash memo agrees" true
          (Sighash.message flag tx ~input_index:0
          = Sighash.message_uncached flag tx ~input_index:0))
      [ Sighash.All; Sighash.Anyprevout; Sighash.Anyprevout_single ]
  done

let () =
  Alcotest.run "daric-crypto"
    [ ( "hash",
        [ Alcotest.test_case "sha256 vectors" `Quick test_sha256_vectors;
          Alcotest.test_case "sha256 padding boundaries" `Quick
            test_sha256_padding_boundaries;
          Alcotest.test_case "ripemd160 vectors" `Quick test_ripemd160_vectors;
          Alcotest.test_case "combinators" `Quick test_hash_combinators ] );
      ( "group",
        [ Alcotest.test_case "laws" `Quick test_group_laws;
          QCheck_alcotest.to_alcotest prop_group_assoc ] );
      ( "schnorr",
        [ Alcotest.test_case "roundtrip" `Quick test_schnorr_roundtrip;
          Alcotest.test_case "encodings" `Quick test_schnorr_encoding;
          Alcotest.test_case "determinism" `Quick test_signature_determinism;
          QCheck_alcotest.to_alcotest prop_sign_verify ] );
      ( "adaptor",
        [ Alcotest.test_case "pre-sign/adapt/extract" `Quick test_adaptor;
          Alcotest.test_case "wrong statement" `Quick test_adaptor_wrong_statement ] );
      ( "fastpath",
        [ QCheck_alcotest.to_alcotest prop_pow_g;
          QCheck_alcotest.to_alcotest prop_pow_precomp;
          QCheck_alcotest.to_alcotest prop_dbl_pow;
          QCheck_alcotest.to_alcotest prop_multi_pow;
          QCheck_alcotest.to_alcotest prop_membership_fast;
          Alcotest.test_case "membership edge cases" `Quick
            test_membership_edge_cases;
          QCheck_alcotest.to_alcotest prop_tagged_cache;
          QCheck_alcotest.to_alcotest prop_verify_equiv;
          Alcotest.test_case "batch verify" `Quick test_batch_verify;
          QCheck_alcotest.to_alcotest prop_batch_verify_equiv;
          Alcotest.test_case "strict encodings" `Quick test_strict_encodings;
          Alcotest.test_case "txid/sighash memoization" `Quick test_txid_memo ] );
      ("util", [ QCheck_alcotest.to_alcotest prop_hex_roundtrip ]) ]
