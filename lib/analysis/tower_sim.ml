(** Durable-tower harness: N channels, R replicated durable towers
    with injected faults, one fault-free probe tower for clean WAL /
    recovery numbers.

    The probe and every replica guard the same channels against the
    same ledger, so revocation posts collide — the ledger rejects the
    duplicates (same txid), which is exactly the idempotence argument
    that makes R independent towers safe to run unco-ordinated. At the
    end the probe's RAM is dropped and its store re-opened, timing the
    full recovery path: snapshot decode, WAL replay, and the catch-up
    poll that rescans the spent log from the restored cursor. *)

module I = Daric_schemes.Scheme_intf
module DS = Daric_schemes.Daric_scheme
module Ledger = Daric_chain.Ledger
module Watchtower = Daric_core.Watchtower
module Persist = Daric_core.Persist
module Durable = Daric_core.Durable
module Towerset = Daric_core.Towerset

type sample = {
  channels : int;
  updates_per_channel : int;
  rounds : int;
  replicas : int;
  snapshot_every : int;
  frauds : int;
  punished : int;
  open_seconds : float;
  update_seconds : float;
  monitor_seconds : float;
  wal_bytes_total : int;
  wal_bytes_per_round : float;
  snapshot_bytes : int;
  snapshots_taken : int;
  tower_storage_bytes : int;
  recovery_seconds : float;
  recovery_replayed : int;
  recovery_had_snapshot : bool;
  scores : Towerset.score list;
}

(* Rotating single-crash schedule: at every instant one replica is
   crashed and each takes turns, so every replica's recovery path and
   the any-one-honest property are both exercised. *)
let staggered_faults ~(replicas : int) ~(period : int) ~(round : int)
    ~(replica : int) : Towerset.fault =
  if replicas <= 1 then `Up
  else if (round / max 1 period) mod replicas = replica then `Down
  else `Up

let run ?(channels = 100) ?(updates = 1) ?(frauds = 4) ?(rounds = 24)
    ?(snapshot_every = 8) ?(replicas = 3) ?(seed = 7)
    ?(probe_store = Durable.memory_store ())
    ?(mk_store = fun (_ : int) -> Durable.memory_store ()) ?faults () :
    sample =
  let env = I.make_env ~delta:1 ~seed () in
  let updates = max 1 updates in
  let rounds = max 2 rounds in
  let frauds = min (max frauds 0) channels in
  let faults =
    match faults with
    | Some f -> f
    | None -> fun ~round ~replica -> staggered_faults ~replicas ~period:4 ~round ~replica
  in
  let chans, open_seconds =
    Fleet.timed (fun () -> Fleet.open_all env ~prefix:"c" ~channels)
  in
  let (), update_seconds = Fleet.timed (fun () -> Fleet.update_all chans ~updates) in
  (* Delegate every channel to the probe and to the replica set. *)
  let probe = Durable.create ~snapshot_every ~wid:"probe" probe_store in
  let ts = Towerset.create ~snapshot_every ~faults ~wid:"tower" ~mk_store replicas in
  let round0 = Ledger.height env.ledger in
  Fleet.watch_all chans ~who:"tower_sim" (fun r ->
      if not (Durable.watch probe r) then
        failwith "tower_sim: probe rejected a valid record";
      if not (Towerset.watch ts ~round:round0 r) then
        failwith "tower_sim: every replica rejected a valid record");
  let post tx = Ledger.post env.ledger tx ~delay:0 in
  let eor_both () =
    let round = Ledger.height env.ledger in
    Towerset.end_of_round ts ~round ~ledger:env.ledger ~post;
    Durable.end_of_round probe ~round ~ledger:env.ledger ~post
  in
  (* Fraud wave A lands halfway through the loop (punished, journaled,
     then absorbed into a later snapshot); wave B lands *after* the
     loop's last snapshot, so the crash point below has live WAL
     content and recovery must replay punishments, not just load the
     snapshot. Both replay revoked commits with the channel parties
     frozen; only the towers can react. *)
  let frauds_a = frauds - (frauds / 2) in
  let fraud_round = max 1 (rounds / 2) in
  let (), monitor_seconds =
    Fleet.timed (fun () ->
        for i = 1 to rounds do
          if i = fraud_round then
            for k = channels - frauds to channels - frauds + frauds_a - 1 do
              DS.publish_revoked chans.(k)
            done;
          I.settle env 1;
          eor_both ()
        done)
  in
  (* Wave B, then let the revocations confirm and the punished lists
     settle. *)
  for k = channels - frauds + frauds_a to channels - 1 do
    DS.publish_revoked chans.(k)
  done;
  I.settle env 1;
  eor_both ();
  I.settle env 1;
  eor_both ();
  let final_round = Ledger.height env.ledger in
  let punished = List.length (Towerset.punished ts) in
  if punished <> frauds then
    failwith
      (Printf.sprintf "tower_sim: %d frauds posted, %d punished" frauds punished);
  let probe_punished = List.length (Watchtower.punished (Durable.tower probe)) in
  if probe_punished <> frauds then
    failwith
      (Printf.sprintf "tower_sim: probe punished %d of %d" probe_punished frauds);
  let wal_bytes_total = Durable.wal_bytes probe in
  let snapshot_bytes = Durable.snapshot_bytes probe in
  let snapshots_taken = Durable.snapshots_taken probe in
  let tower_storage_bytes = Watchtower.storage_bytes (Durable.tower probe) in
  let guarded_before = Watchtower.guarded_count (Durable.tower probe) in
  (* Crash the probe (drop its RAM) and time the full re-open: snapshot
     + WAL replay + one catch-up poll from the restored cursor. Before
     the catch-up poll, the recovered tower must hold exactly the live
     probe's record bytes (checked outside the timed spans). *)
  let recovery, recover_seconds =
    Fleet.timed (fun () ->
        match Durable.recover ~snapshot_every ~wid:"probe" probe_store with
        | Ok r -> r
        | Error e ->
            failwith ("tower_sim: recovery failed: " ^ Persist.error_to_string e))
  in
  let tw = Durable.tower recovery.Durable.t in
  let blobs t =
    let acc = ref [] in
    Watchtower.iter_record_blobs t (fun b -> acc := b :: !acc);
    List.sort String.compare !acc
  in
  if blobs tw <> blobs (Durable.tower probe) then
    failwith "tower_sim: recovered record bytes differ from the live probe";
  if Watchtower.storage_bytes tw <> tower_storage_bytes then
    failwith "tower_sim: recovered storage bytes differ from the live probe";
  let (), catch_up_seconds =
    Fleet.timed (fun () ->
        Durable.end_of_round recovery.Durable.t ~round:final_round
          ~ledger:env.ledger ~post)
  in
  let recovery_seconds = recover_seconds +. catch_up_seconds in
  if Watchtower.guarded_count tw <> guarded_before then
    failwith "tower_sim: recovered tower lost channels";
  if List.length (Watchtower.punished tw) <> frauds then
    failwith "tower_sim: recovered tower lost punishments";
  { channels;
    updates_per_channel = updates;
    rounds;
    replicas;
    snapshot_every;
    frauds;
    punished;
    open_seconds;
    update_seconds;
    monitor_seconds;
    wal_bytes_total;
    wal_bytes_per_round = float_of_int wal_bytes_total /. float_of_int rounds;
    snapshot_bytes;
    snapshots_taken;
    tower_storage_bytes;
    recovery_seconds;
    recovery_replayed = recovery.Durable.replayed;
    recovery_had_snapshot = recovery.Durable.had_snapshot;
    scores = Towerset.scorecard ts }

let pp ppf (s : sample) =
  Fmt.pf ppf
    "@[<v>N=%d channels (%d updates each), %d replicas, %d rounds, \
     snapshot every %d@,\
     open: %.2fs   updates: %.2fs   monitor: %.3fs@,\
     frauds: %d posted, %d punished@,\
     probe WAL: %dB total (%.1fB/round)   snapshot: %dB (%d taken)   \
     tower RAM: %dB@,\
     recovery: %.6fs (%d WAL records replayed, snapshot=%b)@,%a@]"
    s.channels s.updates_per_channel s.replicas s.rounds s.snapshot_every
    s.open_seconds s.update_seconds s.monitor_seconds s.frauds s.punished
    s.wal_bytes_total s.wal_bytes_per_round s.snapshot_bytes
    s.snapshots_taken s.tower_storage_bytes s.recovery_seconds
    s.recovery_replayed s.recovery_had_snapshot Towerset.pp_scorecard
    s.scores
