(** Durable-tower harness: N Daric channels guarded by a replicated
    {!Daric_core.Towerset} (R durable towers with injected faults)
    plus one fault-free durable probe tower whose store is crashed and
    re-opened at the end to measure recovery cost. Reports WAL
    overhead per round, snapshot size, recovery time, and the
    per-replica liveness/accountability scorecard. *)

type sample = {
  channels : int;
  updates_per_channel : int;
  rounds : int;  (** monitoring rounds driven after delegation *)
  replicas : int;
  snapshot_every : int;
  frauds : int;
  punished : int;  (** union over replicas — must equal [frauds] *)
  open_seconds : float;
  update_seconds : float;
  monitor_seconds : float;  (** whole monitoring loop, all replicas *)
  wal_bytes_total : int;
      (** bytes the probe tower appended to its WAL over the run *)
  wal_bytes_per_round : float;
  snapshot_bytes : int;  (** most recent probe snapshot *)
  snapshots_taken : int;
  tower_storage_bytes : int;  (** probe tower in-RAM storage *)
  recovery_seconds : float;
      (** re-open the probe store: snapshot load + WAL replay +
          cursor catch-up poll *)
  recovery_replayed : int;  (** WAL records applied on recovery *)
  recovery_had_snapshot : bool;
  scores : Daric_core.Towerset.score list;
}

val run :
  ?channels:int ->
  ?updates:int ->
  ?frauds:int ->
  ?rounds:int ->
  ?snapshot_every:int ->
  ?replicas:int ->
  ?seed:int ->
  ?probe_store:Daric_core.Durable.store ->
  ?mk_store:(int -> Daric_core.Durable.store) ->
  ?faults:(round:int -> replica:int -> Daric_core.Towerset.fault) ->
  unit ->
  sample
(** Build the system and measure. Defaults: 100 channels, 1 update,
    4 frauds (clamped to [channels]), 24 rounds, snapshot every 8,
    3 replicas under a rotating single-crash schedule (replica [r] is
    [`Down] exactly when [(round / 4) mod replicas = r]), probe and
    replica stores in memory. Raises [Failure] if any fraud goes
    unpunished. *)

val pp : Format.formatter -> sample -> unit
