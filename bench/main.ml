(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (Table 1, Table 3, the Section 6.1 attack analysis, the
   Section 6.2 incentive analysis, the Section 4.1 lifetime numbers)
   and runs Bechamel micro-benchmarks over the hot operations — one
   Test.make per experiment.

   Usage:
     dune exec bench/main.exe              # everything
     dune exec bench/main.exe -- table1    # one experiment
     dune exec bench/main.exe -- table1 table3 attack incentives lifetime micro
     dune exec bench/main.exe -- table1 --full   # Table 1 up to n = 1000

   An unknown section name prints the known ones and exits 2. *)

module Tx = Daric_tx.Tx
module I = Daric_schemes.Scheme_intf
module Harness = Daric_schemes.Harness
module Registry = Daric_schemes.Registry

let section title =
  Fmt.pr "@.%s@.%s@." title (String.make (String.length title) '=')

(* ---------------- table/figure regeneration ---------------- *)

let run_table1 ~full () =
  section "Experiment T1: Table 1 (storage, qualitative comparison)";
  let ns = if full then [ 1; 10; 100; 1000 ] else [ 1; 10; 100 ] in
  print_string (Daric_analysis.Tables.table1 ~ns ())

let run_table3 () =
  section "Experiment T3: Table 3 (closure cost and operation counts)";
  print_string (Daric_analysis.Tables.table3 ~ms:[ 0; 1; 5; 10; 100; 966 ] ());
  print_newline ();
  print_string (Daric_analysis.Tables.measured_ops_table ())

let run_attack ~full () =
  section "Experiment S6.1: HTLC-security delay attack";
  let cfg =
    if full then
      { Daric_pcn.Attack.default_config with n_channels = 40; timelock_blocks = 36 }
    else Daric_pcn.Attack.default_config
  in
  print_string (Daric_analysis.Tables.attack_report ~cfg ());
  (* profitability frontier: adversary net vs number of channels, at
     paper constants (cost is 144A regardless of N) *)
  Fmt.pr "@.profitability frontier (analytic, 3-day timelock, race p=0.5):@.";
  Fmt.pr "%-10s %-14s %-14s %-10s@." "N chans" "cost (A)" "E[revenue] (A)"
    "E[net] (A)";
  List.iter
    (fun n ->
      let cost = Daric_pcn.Attack.Analytic.cost_over_a () in
      let rev = float_of_int n *. 0.5 in
      Fmt.pr "%-10d %-14d %-14.0f %-10.0f@." n cost rev (rev -. float_of_int cost))
    [ 10; 100; 288; 400; 715 ]

(* Empirical bounded closure: rounds from a fraud (or unilateral
   close) to final resolution, swept over the ledger delay and the
   dispute window T, via the generic scenario engine. The paper's
   bound is Delta for punishment and T + Delta for closure. *)
let run_bounded_closure () =
  section "Experiment UC: bounded closure latency (rounds)";
  let (module S : I.SCHEME) = Registry.find_exn "Daric" in
  Fmt.pr "%-8s %-8s %-14s %-14s %-14s@." "delta" "T" "punish<=delta"
    "close<=T+delta" "measured(p,c)";
  List.iter
    (fun (delta, t_rel) ->
      let config =
        { I.default_config with bal_a = 50_000; bal_b = 50_000;
          rel_lock = t_rel }
      in
      let rounds close =
        match
          Harness.run ~config ~env:(I.make_env ~delta ()) (module S)
            { updates = 1; close }
        with
        | Ok { Harness.outcome = Some o; _ } when o.I.resolved -> o.I.rounds
        | _ -> -1
      in
      Fmt.pr "%-8d %-8d %-14d %-14d (%d, %d)@." delta t_rel ((2 * delta) + 1)
        (t_rel + (2 * delta) + 1) (rounds `Dishonest) (rounds `Force))
    [ (1, 3); (1, 6); (2, 5); (3, 8); (4, 10) ]

(* Cross-scheme closure outcomes: dishonest and unilateral closure for
   every registered scheme under one environment, from the registry. *)
let run_closure () =
  section "Experiment REG: closure outcomes across all schemes";
  Fmt.pr "%-12s %-22s %-22s@." "Scheme" "dishonest (rounds)" "force (rounds)";
  List.iter
    (fun (module S : I.SCHEME) ->
      let show close =
        match Harness.run_fresh (module S) { updates = 2; close } with
        | Ok { Harness.outcome = Some o; _ } ->
            Fmt.str "%s in %d"
              (if o.I.punished then "punished"
               else if o.I.resolved then "resolved"
               else "unresolved")
              o.I.rounds
        | Ok _ -> "no outcome"
        | Error e -> "error: " ^ (I.error_to_string e)
      in
      Fmt.pr "%-12s %-22s %-22s@." S.name (show `Dishonest) (show `Force))
    Registry.all

let run_incentives () =
  section "Experiment S6.2: punishment mechanism";
  print_string (Daric_analysis.Tables.incentives_report ())

let run_lifetime () =
  section "Experiment T1-life: channel lifetime (Section 4.1)";
  let module L = Daric_core.Locktime in
  Fmt.pr "block-height encoding at height 700,000: %d updates@."
    (L.height_mode_capacity ~current_height:700_000);
  Fmt.pr "timestamp encoding at t=1.65e9: %d updates@."
    (L.timestamp_mode_capacity ~current_time:1_650_000_000);
  Fmt.pr "unlimited at <= 1 update/second: %b@."
    (L.unlimited_lifetime ~seconds_per_update:1.0)

(* ---------------- scale sweep (indexed monitor loop) ---------------- *)

let scale_json_file = "BENCH_scale.json"

(* The BENCH_scale/mem/tower/mcheck files share one layout: a flat
   name -> value map sorted by name, so successive runs diff the same
   entries. *)
let write_flat_json ~(file : string) ~(schema : string) ~(unit : string)
    ?(note : string option) (entries : (string * float) list) : unit =
  let entries = List.sort (fun (a, _) (b, _) -> String.compare a b) entries in
  let oc = open_out file in
  let pf fmt = Printf.fprintf oc fmt in
  pf "{\n";
  pf "  \"schema\": \"%s\",\n" schema;
  pf "  \"unit\": \"%s\",\n" unit;
  Option.iter (pf "  \"note\": \"%s\",\n") note;
  pf "  \"entries\": {\n";
  List.iteri
    (fun i (name, v) ->
      pf "    %S: %g%s\n" name v
        (if i = List.length entries - 1 then "" else ","))
    entries;
  pf "  }\n}\n";
  close_out oc

(* N is zero-padded to keep the sorted key order equal to the numeric
   order. *)
let scale_entries (samples : Daric_analysis.Scale.sample list) :
    (string * float) list =
  List.concat_map
    (fun (s : Daric_analysis.Scale.sample) ->
      let p name v = (Printf.sprintf "n%06d/%s" s.channels name, v) in
      [ p "updates-per-sec" s.updates_per_sec;
        p "monitor-per-round-s" s.monitor_seconds_per_poll;
        p "fraud-react-s" s.fraud_react_seconds;
        p "frauds" (float_of_int s.frauds);
        p "punished" (float_of_int s.punished);
        p "tower-bytes" (float_of_int s.tower_storage_bytes);
        p "accepted-txs" (float_of_int s.accepted_txs);
        p "gc-top-heap-words" (float_of_int s.gc.Daric_util.Memtune.top_heap_words);
        p "gc-major-collections"
          (float_of_int s.gc.Daric_util.Memtune.major_collections);
        p "gc-promoted-words" s.gc.Daric_util.Memtune.promoted_words ])
    samples

let run_scale ~smoke ~quick ~full () =
  section "Experiment SCALE: N-channel update+monitor sweep (Daric)";
  let ns =
    if smoke then [ 24 ]
    else if quick then [ 100; 1_000 ]
    else if full then [ 100; 1_000; 10_000; 100_000 ]
    else [ 100; 1_000; 10_000 ]
  in
  let samples =
    List.map
      (fun n ->
        let s =
          Daric_analysis.Scale.run ~channels:n ~updates:1 ~frauds:(min 8 n) ()
        in
        Fmt.pr "%a@.@." Daric_analysis.Scale.pp s;
        if s.Daric_analysis.Scale.punished <> s.Daric_analysis.Scale.frauds
        then begin
          Fmt.epr "scale: tower punished %d of %d frauds at N=%d@."
            s.Daric_analysis.Scale.punished s.Daric_analysis.Scale.frauds n;
          exit 1
        end;
        s)
      ns
  in
  write_flat_json ~file:scale_json_file ~schema:"daric-bench-scale/1"
    ~unit:"seconds unless suffixed otherwise" (scale_entries samples);
  Fmt.pr "wrote %s@." scale_json_file

(* ---------------- memory sweep (retained heap engine) ---------------- *)

let mem_json_file = "BENCH_mem.json"

let mem_entries (samples : Daric_analysis.Memprobe.sample list) :
    (string * float) list =
  List.concat_map
    (fun (s : Daric_analysis.Memprobe.sample) ->
      let p name v = (Printf.sprintf "n%06d/%s" s.channels name, v) in
      [ p "retained-words-per-channel" s.retained_words_per_channel;
        p "retained-words" (float_of_int s.retained_words);
        p "top-heap-words" (float_of_int s.top_heap_words);
        p "promoted-words-per-update" s.promoted_words_per_update;
        p "major-gc-time-share" s.major_time_share;
        p "updates-per-sec" s.updates_per_sec;
        p "tower-arena-bytes" (float_of_int s.tower_arena_bytes);
        p "ledger-pack-bytes" (float_of_int s.ledger_pack_bytes);
        p "ledger-compacted-entries" (float_of_int s.ledger_compacted) ])
    samples

let run_mem ~smoke ~quick ~full () =
  section "Experiment MEM: retained heap per channel (memory engine)";
  let ns =
    if smoke then [ 200 ]
    else if quick then [ 1_000 ]
    else if full then [ 1_000; 10_000; 100_000 ]
    else [ 1_000; 10_000 ]
  in
  let samples =
    List.map
      (fun n ->
        let s = Daric_analysis.Memprobe.run ~channels:n ~updates:2 () in
        Fmt.pr "%a@.@." Daric_analysis.Memprobe.pp s;
        s)
      ns
  in
  (* The packed arenas must be carrying real weight: at every N the
     tower holds one packed record per channel and the ledger has
     compacted the settled prefix of the accepted log. *)
  List.iter
    (fun (s : Daric_analysis.Memprobe.sample) ->
      if s.tower_arena_bytes <= 0 || s.ledger_compacted <= 0 then begin
        Fmt.epr "mem: packed state missing at N=%d (arena=%dB compacted=%d)@."
          s.channels s.tower_arena_bytes s.ledger_compacted;
        exit 1
      end)
    samples;
  write_flat_json ~file:mem_json_file ~schema:"daric-bench-mem/1"
    ~unit:"words/bytes/ratios as suffixed"
    ~note:
      "retained-words diffs quiesced Gc live_words around the whole \
       N-channel build (parties + packed tower arena + compacted ledger + \
       indexes); major-gc-time-share is an estimate (one timed full major \
       x majors during updates / update seconds)"
    (mem_entries samples);
  Fmt.pr "wrote %s@." mem_json_file

(* ------------- durable tower sweep (snapshot + WAL layer) ------------- *)

let tower_json_file = "BENCH_tower.json"

let tower_entries (samples : Daric_analysis.Tower_sim.sample list) :
    (string * float) list =
  List.concat_map
    (fun (s : Daric_analysis.Tower_sim.sample) ->
      let p name v = (Printf.sprintf "n%06d/%s" s.channels name, v) in
      [ p "recovery-s" s.recovery_seconds;
        p "recovery-replayed" (float_of_int s.recovery_replayed);
        p "wal-bytes-per-round" s.wal_bytes_per_round;
        p "wal-bytes-total" (float_of_int s.wal_bytes_total);
        p "snapshot-bytes" (float_of_int s.snapshot_bytes);
        p "snapshots" (float_of_int s.snapshots_taken);
        p "monitor-s" s.monitor_seconds;
        p "frauds" (float_of_int s.frauds);
        p "punished" (float_of_int s.punished);
        p "tower-bytes" (float_of_int s.tower_storage_bytes);
        p "replicas" (float_of_int s.replicas) ])
    samples

(* The journaled tower must be observationally identical to the plain
   one: same punished set, same chain trace, same in-RAM storage. *)
let check_durable_consistency () =
  let probe durable =
    let s =
      Daric_analysis.Scale.run ~channels:12 ~updates:1 ~frauds:3 ~seed:13
        ~durable ()
    in
    ( s.Daric_analysis.Scale.punished,
      s.Daric_analysis.Scale.frauds,
      s.Daric_analysis.Scale.ledger_height,
      s.Daric_analysis.Scale.accepted_txs,
      s.Daric_analysis.Scale.tower_storage_bytes )
  in
  if probe true <> probe false then begin
    Fmt.epr "tower: durable scale trace diverged from plain tower@.";
    exit 1
  end;
  Fmt.pr "durable-consistency: journaled and plain towers agree@."

let run_tower ~smoke ~quick ~full () =
  section "Experiment TOWER: durable replicated watchtower sweep";
  check_durable_consistency ();
  let ns =
    if smoke then [ 100 ]
    else if quick then [ 100; 1_000 ]
    else if full then [ 100; 1_000; 10_000 ]
    else [ 100; 1_000; 10_000 ]
  in
  let samples =
    List.map
      (fun n ->
        let s =
          Daric_analysis.Tower_sim.run ~channels:n ~updates:1
            ~frauds:(min 8 n) ~rounds:24 ()
        in
        Fmt.pr "%a@.@." Daric_analysis.Tower_sim.pp s;
        s)
      ns
  in
  write_flat_json ~file:tower_json_file ~schema:"daric-bench-tower/1"
    ~unit:"seconds unless suffixed otherwise"
    ~note:
      "recovery-s re-opens the probe tower's store (snapshot decode + WAL \
       replay + catch-up poll) after a simulated crash; wal-bytes-per-round \
       is the journal overhead of one monitoring round"
    (tower_entries samples);
  Fmt.pr "wrote %s@." tower_json_file

(* ---------------- model-checker throughput ---------------- *)

let mcheck_json_file = "BENCH_mcheck.json"

(* One group per checked world: states/transitions/seconds plus the
   derived states-per-sec exploration rate. *)
let mcheck_entries (entries : Daric_mcheck.Matrix.entry list) :
    (string * float) list =
  List.concat_map
    (fun (e : Daric_mcheck.Matrix.entry) ->
      let p name v = (Printf.sprintf "%s/%s" e.Daric_mcheck.Matrix.model name, v) in
      let r = e.Daric_mcheck.Matrix.result in
      [ p "states" (float_of_int r.Daric_mcheck.Mcheck.visited);
        p "transitions" (float_of_int r.Daric_mcheck.Mcheck.transitions);
        p "seconds" e.Daric_mcheck.Matrix.seconds;
        p "states-per-sec"
          (if e.Daric_mcheck.Matrix.seconds > 0. then
             float_of_int r.Daric_mcheck.Mcheck.transitions
             /. e.Daric_mcheck.Matrix.seconds
           else 0.);
        p "counterexamples"
          (float_of_int (List.length r.Daric_mcheck.Mcheck.counterexamples))
      ])
    entries

let run_mcheck ~smoke () =
  let module M = Daric_mcheck.Matrix in
  section
    (if smoke then "Experiment MC: model-checker throughput (smoke)"
     else "Experiment MC: model-checker throughput");
  let mutants =
    let all = M.mutation_matrix () in
    if smoke then
      List.filter
        (fun (mu, _) -> mu = Daric_staticcheck.Daricmodel.Drop_revocation)
        all
    else all
  in
  let entries =
    (M.closure_clean () :: List.map snd mutants)
    @ (if smoke then
         List.filter_map (fun n -> M.scheme_one n) [ "Daric"; "Lightning" ]
       else M.scheme_sweep ())
    @ M.tower_sweep ()
  in
  List.iter (fun e -> Fmt.pr "%a@." M.pp_entry e) entries;
  let bad = List.filter (fun e -> not (M.ok e)) entries in
  write_flat_json ~file:mcheck_json_file ~schema:"daric-bench-mcheck/1"
    ~unit:"counts and seconds; states-per-sec = transitions/s"
    ~note:
      "bounded exhaustive exploration; the counterexample on the lightning \
       tower is the expected punish-or-refund finding"
    (mcheck_entries entries);
  Fmt.pr "wrote %s@." mcheck_json_file;
  if bad <> [] then begin
    List.iter
      (fun (e : M.entry) ->
        Fmt.epr "unexpected mcheck result: %s@." e.M.model)
      bad;
    exit 1
  end

(* ---------------- Bechamel micro-benchmarks ---------------- *)

let bench_tests () =
  let open Bechamel in
  let module Group = Daric_crypto.Group in
  let module Schnorr = Daric_crypto.Schnorr in
  let rng = Daric_util.Rng.create ~seed:1 in
  let sk, pk = Schnorr.keygen rng in
  let msg = Daric_util.Rng.bytes rng 64 in
  let sg = Schnorr.sign sk msg in
  let sign =
    Test.make ~name:"schnorr-sign"
      (Staged.stage (fun () -> ignore (Schnorr.sign sk msg)))
  in
  let verify =
    Test.make ~name:"schnorr-verify"
      (Staged.stage (fun () -> ignore (Schnorr.verify pk msg sg)))
  in
  (* the pre-optimization reference paths, kept runnable so every run
     reports the before/after pair from the same machine *)
  let verify_naive =
    Test.make ~name:"schnorr-verify_naive"
      (Staged.stage (fun () -> ignore (Schnorr.verify_naive pk msg sg)))
  in
  (* keyed operations against their un-keyed (plain-path) baselines:
     the keyed side amortizes per-key validation, encodings and the
     fixed-base window table through a Keyctx; same verdicts, same
     signature bytes *)
  let kc = Daric_crypto.Keyctx.create ~sk pk in
  ignore (Daric_crypto.Keyctx.table kc);
  let sign_keyed =
    Test.make ~name:"schnorr-sign-keyed"
      (Staged.stage (fun () -> ignore (Schnorr.sign_keyed kc msg)))
  in
  let sign_keyed_naive =
    Test.make ~name:"schnorr-sign-keyed_naive"
      (Staged.stage (fun () -> ignore (Schnorr.sign sk msg)))
  in
  let verify_keyed =
    Test.make ~name:"schnorr-verify-keyed"
      (Staged.stage (fun () -> assert (Schnorr.verify_keyed kc msg sg)))
  in
  let verify_keyed_naive =
    Test.make ~name:"schnorr-verify-keyed_naive"
      (Staged.stage (fun () -> assert (Schnorr.verify pk msg sg)))
  in
  let batch_items =
    List.init 64 (fun i ->
        let sk, pk = Schnorr.keygen rng in
        let m = Daric_util.Rng.bytes rng 64 in
        ignore i;
        (pk, m, Schnorr.sign sk m))
  in
  let batch =
    Test.make ~name:"schnorr-batch-verify-64"
      (Staged.stage (fun () -> assert (Schnorr.batch_verify batch_items)))
  in
  let batch_naive =
    Test.make ~name:"schnorr-batch-verify-64_naive"
      (Staged.stage (fun () ->
           assert
             (List.for_all (fun (pk, m, s) -> Schnorr.verify_naive pk m s)
                batch_items)))
  in
  let exp = 987_654_321 in
  let pow_fixed =
    Test.make ~name:"group-pow-g"
      (Staged.stage (fun () -> ignore (Group.pow_g exp)))
  in
  let pow_naive =
    Test.make ~name:"group-pow-g_naive"
      (Staged.stage (fun () -> ignore (Group.pow Group.g exp)))
  in
  let member = Group.pow_g 123_456 in
  let is_elt_qr =
    Test.make ~name:"group-is-element"
      (Staged.stage (fun () -> assert (Group.is_element_fast member)))
  in
  let is_elt_naive =
    Test.make ~name:"group-is-element_naive"
      (Staged.stage (fun () -> assert (Group.is_element member)))
  in
  let sha =
    Test.make ~name:"sha256-64B"
      (Staged.stage (fun () -> ignore (Daric_crypto.Sha256.digest msg)))
  in
  let sha_naive =
    Test.make ~name:"sha256-64B_naive"
      (Staged.stage (fun () -> ignore (Daric_crypto.Sha256.digest_portable msg)))
  in
  let txid_tx =
    Tx.make ~locktime:(500_000_123) ~inputs:[ Tx.input_of_outpoint { Tx.txid = String.make 32 'x'; vout = 0 } ] ~outputs:[ { Tx.value = 50_000; spk = Tx.P2wpkh (String.make 20 'h') };
          { Tx.value = 50_000; spk = Tx.P2wsh (String.make 32 's') } ] ()
  in
  let txid_memo =
    Test.make ~name:"txid"
      (Staged.stage (fun () -> ignore (Tx.txid txid_tx)))
  in
  let txid_naive =
    Test.make ~name:"txid_naive"
      (Staged.stage (fun () -> ignore (Tx.txid_uncached txid_tx)))
  in
  (* zero-copy encode path: the memo hands back the cached body string;
     the naive baseline re-runs the full serialization pass *)
  let tx_encode =
    Test.make ~name:"tx-encode"
      (Staged.stage (fun () -> ignore (Tx.body_serialize txid_tx)))
  in
  let tx_encode_naive =
    Test.make ~name:"tx-encode_naive"
      (Staged.stage (fun () -> ignore (Tx.body_serialize_uncached txid_tx)))
  in
  (* amortized family sighash: all three flag messages over one body —
     the memoized path computes each flag's midstate once and serves
     the rest from the per-body slot cache *)
  let sighash_flags =
    Daric_tx.Sighash.[ All; Anyprevout; Anyprevout_single ]
  in
  let sighash_family =
    Test.make ~name:"sighash-family"
      (Staged.stage (fun () ->
           List.iter
             (fun f ->
               ignore (Daric_tx.Sighash.message f txid_tx ~input_index:0))
             sighash_flags))
  in
  let sighash_family_naive =
    Test.make ~name:"sighash-family_naive"
      (Staged.stage (fun () ->
           List.iter
             (fun f ->
               ignore
                 (Daric_tx.Sighash.message_uncached f txid_tx ~input_index:0))
             sighash_flags))
  in
  (* one full channel-update round-trip per registered scheme (for
     Daric: both parties, all messages, no chain interaction) — the
     per-payment cost. Limited-lifetime schemes (Outpost) are
     recreated transparently when their update budget runs out. *)
  let scheme_update_test (module S : I.SCHEME) =
    let config =
      { I.default_config with bal_a = 1_000_000; bal_b = 1_000_000 }
    in
    let open_fresh () =
      match S.open_channel (I.make_env ()) config with
      | Ok ch -> ch
      | Error e -> failwith (I.error_to_string e)
    in
    let ch = ref (open_fresh ()) in
    let k = ref 0 in
    let step () =
      incr k;
      let bal_a, bal_b = Harness.balance_at config !k in
      match S.update !ch ~bal_a ~bal_b with
      | Ok () -> ()
      | Error _ ->
          ch := open_fresh ();
          (match S.update !ch ~bal_a ~bal_b with
          | Ok () -> ()
          | Error e -> failwith (I.error_to_string e))
    in
    Test.make
      ~name:(String.lowercase_ascii S.name ^ "-channel-update")
      (Staged.stage step)
  in
  let scheme_updates = List.map scheme_update_test Registry.all in
  (* weight accounting of a full dishonest closure (Table 3 path) *)
  let weights =
    Test.make ~name:"table3-weight-model"
      (Staged.stage (fun () ->
           List.iter
             (fun (s : Daric_schemes.Costmodel.scheme) ->
               ignore (Daric_schemes.Costmodel.weight (s.dishonest ~m:10)))
             Daric_schemes.Costmodel.all))
  in
  [ sign; verify; verify_naive; sign_keyed; sign_keyed_naive; verify_keyed;
    verify_keyed_naive; batch; batch_naive; pow_fixed; pow_naive; is_elt_qr;
    is_elt_naive; sha; sha_naive; txid_memo; txid_naive; tx_encode; tx_encode_naive;
    sighash_family; sighash_family_naive ]
  @ scheme_updates @ [ weights ]

(* Machine-readable perf trajectory: a flat name -> ns/run map written
   next to the run so successive PRs can diff the same entries. *)
let bench_json_file = "BENCH_crypto.json"

let write_bench_json ~(quota_s : float) (entries : (string * float) list) :
    unit =
  let oc = open_out bench_json_file in
  let pf fmt = Printf.fprintf oc fmt in
  pf "{\n";
  pf "  \"schema\": \"daric-bench-crypto/1\",\n";
  pf "  \"quota_s\": %g,\n" quota_s;
  pf "  \"unit\": \"ns/run\",\n";
  pf "  \"entries\": {\n";
  List.iteri
    (fun i (name, est) ->
      pf "    %S: %.1f%s\n" name est
        (if i = List.length entries - 1 then "" else ","))
    entries;
  pf "  }\n}\n";
  close_out oc

(* Every entry the perf-acceptance checks depend on must survive into
   the JSON; a missing one means the harness bit-rotted. One
   channel-update entry per registered scheme. *)
let required_entries =
  [ "schnorr-sign"; "schnorr-verify"; "schnorr-verify_naive";
    "schnorr-sign-keyed"; "schnorr-sign-keyed_naive";
    "schnorr-verify-keyed"; "schnorr-verify-keyed_naive";
    "schnorr-batch-verify-64"; "schnorr-batch-verify-64_naive";
    "txid"; "txid_naive"; "tx-encode"; "tx-encode_naive";
    "sighash-family"; "sighash-family_naive"; "sha256-64B"; "sha256-64B_naive" ]
  @ List.map
      (fun (module S : I.SCHEME) ->
        String.lowercase_ascii S.name ^ "-channel-update")
      Registry.all

let run_micro ~smoke ~quick () =
  section
    (if smoke then "Micro-benchmarks (Bechamel, smoke quota)"
     else if quick then "Micro-benchmarks (Bechamel, quick quota)"
     else "Micro-benchmarks (Bechamel)");
  let open Bechamel in
  let open Toolkit in
  let instances = Instance.[ monotonic_clock ] in
  let quota_s = if smoke then 0.1 else if quick then 0.25 else 0.5 in
  let cfg =
    Benchmark.cfg ~limit:500 ~quota:(Time.second quota_s) ~kde:(Some 500) ()
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:Measure.[| run |]
  in
  let entries = ref [] in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg instances test in
      let results = Analyze.all ols Instance.monotonic_clock results in
      Hashtbl.iter
        (fun name result ->
          match Analyze.OLS.estimates result with
          | Some [ est ] -> entries := (name, est) :: !entries
          | _ -> ())
        results)
    (bench_tests ());
  (* sorted-name order: Hashtbl.iter order is seed-dependent, sorted
     output is diffable run-to-run *)
  let entries =
    List.sort (fun (a, _) (b, _) -> String.compare a b) !entries
  in
  List.iter (fun (name, est) -> Fmt.pr "%-32s %12.0f ns/run@." name est) entries;
  write_bench_json ~quota_s entries;
  Fmt.pr "wrote %s@." bench_json_file;
  let missing =
    List.filter (fun r -> not (List.mem_assoc r entries)) required_entries
  in
  if missing <> [] then begin
    Fmt.epr "missing bench entries: %a@." Fmt.(list ~sep:comma string) missing;
    exit 1
  end

(* ---------------- driver ---------------- *)

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let full = List.mem "--full" args in
  let smoke = List.mem "--smoke" args in
  let quick = List.mem "--quick" args in
  let args =
    List.filter (fun a -> a <> "--full" && a <> "--smoke" && a <> "--quick") args
  in
  (* Each section: its name, whether a bare run includes it, and its
     run. The explicit-only ones build up to 100k channels (scale, mem),
     10k channels with R+1 towers (tower), or explore every world
     (mcheck). "crypto" names the micro suite (it is crypto-dominated
     and owns BENCH_crypto.json); --quick mirrors scale's. *)
  let sections =
    [ ("table1", true, fun () -> run_table1 ~full ());
      ("table3", true, run_table3);
      ("attack", true, fun () -> run_attack ~full ());
      ("bounded", true, run_bounded_closure);
      ("closure", true, run_closure);
      ("incentives", true, run_incentives);
      ("lifetime", true, run_lifetime);
      ( "csv",
        false,
        fun () ->
          section "CSV export";
          let ns = if full then [ 1; 10; 100; 1000 ] else [ 1; 10; 100 ] in
          List.iter (Fmt.pr "wrote %s@.")
            (Daric_analysis.Csv.write_all ~ns ~dir:"results" ()) );
      ("scale", false, fun () -> run_scale ~smoke ~quick ~full ());
      ("tower", false, fun () -> run_tower ~smoke ~quick ~full ());
      ("mem", false, fun () -> run_mem ~smoke ~quick ~full ());
      ("mcheck", false, fun () -> run_mcheck ~smoke ());
      ("micro", true, fun () -> run_micro ~smoke ~quick ()) ]
  in
  let args = List.map (function "crypto" -> "micro" | a -> a) args in
  let names = List.map (fun (n, _, _) -> n) sections in
  (match List.filter (fun a -> not (List.mem a names)) args with
  | [] -> ()
  | unknown ->
      Fmt.epr "unknown section(s): %s@.known sections: %s, crypto@."
        (String.concat ", " unknown) (String.concat ", " names);
      exit 2);
  List.iter
    (fun (name, default, run) ->
      if (default && args = []) || List.mem name args then run ())
    sections
