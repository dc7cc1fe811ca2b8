(** Scale harness: N Daric channels on one shared ledger.

    Drives the real two-party protocol (through the SCHEME registry's
    Daric wrapper) for every channel — open, a sweep of off-chain
    updates, delegation to one watchtower guarding all N channels —
    then measures what the monitoring loop costs per round: the
    monitor ({!Daric_core.Watchtower.end_of_round}) is driven by the
    ledger's spent-outpoint log, so its per-round cost is O(newly
    spent) and should stay flat as N grows.

    The run ends with a fraud wave: revoked commits are replayed on a
    slice of channels with both parties frozen, and the tower must
    punish every one of them. *)

module I = Daric_schemes.Scheme_intf
module DS = Daric_schemes.Daric_scheme
module Ledger = Daric_chain.Ledger
module Watchtower = Daric_core.Watchtower
module Durable = Daric_core.Durable
module Memtune = Daric_util.Memtune

type sample = {
  channels : int;
  updates_per_channel : int;
  open_seconds : float;
  update_seconds : float;
  updates_per_sec : float;
  monitor_polls : int;  (** idle polls timed for the indexed monitor *)
  monitor_seconds_per_poll : float;
  frauds : int;
  punished : int;
  fraud_react_seconds : float;
      (** one indexed poll that catches all [frauds] spends *)
  ledger_height : int;
  accepted_txs : int;
  tower_storage_bytes : int;
  durable : bool;  (** tower ran behind the snapshot+WAL layer *)
  wal_bytes : int;  (** total WAL appended (0 when not durable) *)
  snapshot_bytes : int;  (** latest snapshot (0 when not durable) *)
  gc : Memtune.stats;  (** collector quick-stats at end of run *)
}

(** [run ~channels ~updates ~frauds ~seed ()] builds the N-channel
    system and returns the measured sample. [frauds] is clamped to
    [channels]; every channel gets [updates] off-chain updates (at
    least 1 — a revoked state must exist for the tower to be of use). *)
let run ?(channels = 100) ?(updates = 1) ?(frauds = 4) ?(seed = 7)
    ?(durable = false) () : sample =
  (* An update's allocations are almost all dead within the round; the
     default 256k-word minor heap still promotes a slice of them at
     every minor cycle, and at N=100k that promoted garbage is what the
     major GC spends the run collecting. [Memtune.pace] raises the
     minor heap to 1M words (8 MB — still cache-benign) so most of it
     dies young: ~15–20% more updates/sec at N ≥ 10k, flat below. *)
  Memtune.pace ();
  let env = I.make_env ~delta:1 ~seed () in
  let updates = max 1 updates in
  let frauds = min (max frauds 0) channels in
  let chans, open_seconds =
    Fleet.timed (fun () -> Fleet.open_all env ~prefix:"c" ~channels)
  in
  let (), update_seconds = Fleet.timed (fun () -> Fleet.update_all chans ~updates) in
  (* Delegate every channel to one tower — behind the snapshot+WAL
     layer when [durable], so the sweep also prices the journal. *)
  let dtower =
    if durable then
      Some (Durable.create ~wid:"tower" (Durable.memory_store ()))
    else None
  in
  let tower =
    match dtower with
    | Some d -> Durable.tower d
    | None -> Watchtower.create ~wid:"tower" ()
  in
  let do_watch r =
    match dtower with
    | Some d -> Durable.watch d r
    | None -> Watchtower.watch tower r
  in
  Fleet.watch_all chans ~who:"scale" (fun r ->
      if not (do_watch r) then failwith "scale: tower rejected a valid record");
  let post tx = Ledger.post env.ledger tx ~delay:0 in
  let eor () =
    let round = Ledger.height env.ledger in
    match dtower with
    | Some d -> Durable.end_of_round d ~round ~ledger:env.ledger ~post
    | None -> Watchtower.end_of_round tower ~round ~ledger:env.ledger ~post
  in
  (* First poll swallows the one-time fresh-record check (O(N), paid
     once per watch, not per round); idle polls after it are what a
     steady-state round costs. *)
  eor ();
  let monitor_polls = 8 in
  let (), monitor_total =
    Fleet.timed (fun () ->
        for _ = 1 to monitor_polls do
          I.settle env 1;
          eor ()
        done)
  in
  (* Fraud wave: replay revoked commits on the last [frauds] channels
     with both parties frozen; only the tower can react. *)
  for k = channels - frauds to channels - 1 do
    DS.publish_revoked chans.(k)
  done;
  I.settle env 1;
  (* The reaction poll is O(frauds) — microseconds — but at large N the
     incremental major GC still owes marking work for the O(N) heap the
     open/update phases built, and it pays that debt at allocation
     points *inside* whatever code runs next, inflating a one-shot
     timing ~8× at N=100k. Finish the outstanding cycle first so the
     timing measures the punish path, not the collector's backlog. *)
  Memtune.quiesce ();
  let (), fraud_react_seconds = Fleet.timed eor in
  I.settle env 1;
  (* let the revocations confirm, then settle the punished list *)
  eor ();
  { channels;
    updates_per_channel = updates;
    open_seconds;
    update_seconds;
    updates_per_sec =
      (if update_seconds > 0. then
         float_of_int (channels * updates) /. update_seconds
       else 0.);
    monitor_polls;
    monitor_seconds_per_poll = monitor_total /. float_of_int monitor_polls;
    frauds;
    punished = List.length (Watchtower.punished tower);
    fraud_react_seconds;
    ledger_height = Ledger.height env.ledger;
    accepted_txs = Ledger.accepted_count env.ledger;
    tower_storage_bytes = Watchtower.storage_bytes tower;
    durable;
    wal_bytes = (match dtower with Some d -> Durable.wal_bytes d | None -> 0);
    snapshot_bytes =
      (match dtower with Some d -> Durable.snapshot_bytes d | None -> 0);
    gc = Memtune.quick_stats () }

let pp ppf (s : sample) =
  Fmt.pf ppf
    "@[<v>N=%d channels (%d updates each)@,\
     open: %.2fs   updates: %.2fs (%.0f upd/s)@,\
     monitor/round: %.6fs over %d polls@,\
     frauds: %d posted, %d punished (react poll: %.6fs)@,\
     height=%d accepted=%d tower=%dB%s@,\
     gc: top-heap=%dw majors=%d promoted=%.0fw@]"
    s.channels s.updates_per_channel s.open_seconds s.update_seconds
    s.updates_per_sec s.monitor_seconds_per_poll s.monitor_polls s.frauds
    s.punished s.fraud_react_seconds s.ledger_height s.accepted_txs
    s.tower_storage_bytes
    (if s.durable then
       Printf.sprintf " (durable: wal=%dB snapshot=%dB)" s.wal_bytes
         s.snapshot_bytes
     else "")
    s.gc.Memtune.top_heap_words s.gc.Memtune.major_collections
    s.gc.Memtune.promoted_words
