(* Per-operation costs of the crypto and transaction layers, each as a
   cold/warm pair. A cold entry feeds a fresh input to every iteration,
   so no memo (challenge cache, in-place tx encoding memo) can answer
   it; its warm partner repeats one input, so the gap between the two is
   the memo's share. Signatures for the cold verify entries are made on
   a short-lived second domain: the memo tables are domain-local, so the
   timing domain has never seen those challenges. Each figure is the
   median over [reps] blocks of nanoseconds per operation. *)

module Schnorr = Daric_crypto.Schnorr
module Keyctx = Daric_crypto.Keyctx
module Rng = Daric_util.Rng
module Tx = Daric_tx.Tx
module Sighash = Daric_tx.Sighash

let reps = 5

(* Fresh (pk, msg, sig) triples signed on another domain. *)
let foreign_triples (keys : (Schnorr.secret_key * Schnorr.public_key) array)
    (msgs : string array) : (Schnorr.public_key * string * Schnorr.signature) array =
  Domain.join
    (Domain.spawn (fun () ->
         Array.mapi
           (fun i m ->
             let sk, pk = keys.(i mod Array.length keys) in
             (pk, m, Schnorr.sign sk m))
           msgs))

let fresh_tx (rng : Rng.t) : Tx.t =
  Tx.make
    ~locktime:(500_000_000 + Rng.int rng 1_000_000)
    ~inputs:[ Tx.input_of_outpoint { Tx.txid = Rng.bytes rng 32; vout = 0 } ]
    ~outputs:
      [ { Tx.value = 1 + Rng.int rng 500_000; spk = Tx.P2wpkh (Rng.bytes rng 20) };
        { Tx.value = 1 + Rng.int rng 500_000; spk = Tx.P2wsh (Rng.bytes rng 32) } ]
    ()

let run (rng : Rng.t) : (string * float) list =
  let keys = Array.init 8 (fun _ -> Schnorr.keygen rng) in
  let sk0, pk0 = keys.(0) in
  let kc = Keyctx.create ~sk:sk0 pk0 in
  let msgs n = Array.init n (fun _ -> Rng.bytes rng 64) in
  (* signing: the keyed path every channel uses *)
  let n_sign = 1024 in
  let sign_msgs = msgs (reps * n_sign) in
  let sign_cold =
    Stats.ns_per_op ~reps ~n:n_sign (fun r ->
        for i = 0 to n_sign - 1 do
          ignore (Schnorr.sign_keyed kc sign_msgs.((r * n_sign) + i))
        done)
  in
  let sign_warm =
    Stats.ns_per_op ~reps ~n:n_sign (fun _ ->
        for _ = 1 to n_sign do
          ignore (Schnorr.sign_keyed kc sign_msgs.(0))
        done)
  in
  (* single verification *)
  let n_verify = 512 in
  let vt = foreign_triples keys (msgs (reps * n_verify)) in
  let verify_cold =
    Stats.ns_per_op ~reps ~n:n_verify (fun r ->
        for i = 0 to n_verify - 1 do
          let pk, m, s = vt.((r * n_verify) + i) in
          if not (Schnorr.verify pk m s) then failwith "micro: cold verify"
        done)
  in
  let verify_warm =
    let pk, m, s = vt.(0) in
    Stats.ns_per_op ~reps ~n:n_verify (fun _ ->
        for _ = 1 to n_verify do
          if not (Schnorr.verify pk m s) then failwith "micro: warm verify"
        done)
  in
  (* 64-item batch verification *)
  let batches = 8 in
  let bt = foreign_triples keys (msgs (reps * batches * 64)) in
  let batch k = Array.to_list (Array.sub bt (k * 64) 64) in
  let cold_batches = Array.init (reps * batches) batch in
  let batch64_cold =
    Stats.ns_per_op ~reps ~n:batches (fun r ->
        for i = 0 to batches - 1 do
          if not (Schnorr.batch_verify cold_batches.((r * batches) + i)) then
            failwith "micro: cold batch"
        done)
  in
  let batch64_warm =
    let b = cold_batches.(0) in
    Stats.ns_per_op ~reps ~n:batches (fun _ ->
        for _ = 1 to batches do
          if not (Schnorr.batch_verify b) then failwith "micro: warm batch"
        done)
  in
  (* SHA-256 of 64 bytes: no memo on this path *)
  let n_sha = 4096 in
  let sha_msgs = msgs n_sha in
  let sha =
    Stats.ns_per_op ~reps ~n:n_sha (fun _ ->
        Array.iter (fun m -> ignore (Daric_crypto.Sha256.digest m)) sha_msgs)
  in
  (* transaction layer: sighash and body encoding, fresh bodies vs one
     body whose in-place memo is already filled *)
  let n_tx = 2048 in
  let sighash_txs = Array.init (reps * n_tx) (fun _ -> fresh_tx rng) in
  let encode_txs = Array.init (reps * n_tx) (fun _ -> fresh_tx rng) in
  let over txs f r =
    for i = 0 to n_tx - 1 do
      f txs.((r * n_tx) + i)
    done
  in
  let sighash tx = ignore (Sighash.message Sighash.All tx ~input_index:0) in
  let encode tx = ignore (Tx.body_serialize tx) in
  let repeat tx f _ =
    for _ = 1 to n_tx do
      f tx
    done
  in
  let sighash_cold = Stats.ns_per_op ~reps ~n:n_tx (over sighash_txs sighash) in
  let sighash_warm =
    Stats.ns_per_op ~reps ~n:n_tx (repeat sighash_txs.(0) sighash)
  in
  let encode_cold = Stats.ns_per_op ~reps ~n:n_tx (over encode_txs encode) in
  let encode_warm = Stats.ns_per_op ~reps ~n:n_tx (repeat encode_txs.(0) encode) in
  [ ("crypto.sign_ns", sign_cold);
    ("crypto.sign_warm_ns", sign_warm);
    ("crypto.verify_cold_ns", verify_cold);
    ("crypto.verify_warm_ns", verify_warm);
    ("crypto.batch64_cold_ns", batch64_cold);
    ("crypto.batch64_warm_ns", batch64_warm);
    ("crypto.sha256_64B_ns", sha);
    ("tx.sighash_cold_ns", sighash_cold);
    ("tx.sighash_warm_ns", sighash_warm);
    ("tx.encode_cold_ns", encode_cold);
    ("tx.encode_warm_ns", encode_warm) ]
