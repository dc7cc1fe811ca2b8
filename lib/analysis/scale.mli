(** Scale harness: N Daric channels (real two-party protocol, via the
    SCHEME registry's Daric wrapper) on one shared ledger, guarded by
    one watchtower — measures per-round cost of the spent-log monitor
    and checks the tower punishes a wave of replayed revoked
    commits. *)

type sample = {
  channels : int;
  updates_per_channel : int;
  open_seconds : float;
  update_seconds : float;
  updates_per_sec : float;
  monitor_polls : int;
  monitor_seconds_per_poll : float;
  frauds : int;
  punished : int;
  fraud_react_seconds : float;
  ledger_height : int;
  accepted_txs : int;
  tower_storage_bytes : int;
  durable : bool;
  wal_bytes : int;
  snapshot_bytes : int;
  gc : Daric_util.Memtune.stats;
}

val run :
  ?channels:int -> ?updates:int -> ?frauds:int -> ?seed:int ->
  ?durable:bool -> unit -> sample
(** Build the system and measure. [frauds] is clamped to [channels];
    [updates] is at least 1. With [~durable:true] the tower runs
    behind the {!Daric_core.Durable} snapshot+WAL layer (memory
    store), so the sweep also prices the journal. *)

val pp : Format.formatter -> sample -> unit
