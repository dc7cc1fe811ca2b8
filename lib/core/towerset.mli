(** N-tower replication: R independent {!Durable} towers over the same
    channel set and ledger, with per-(round, replica) fault injection
    — crash ([`Down]: RAM lost, store survives, recovery + cursor
    catch-up at the next up-round) and omission ([`Omit]: poll
    skipped, cursor unmoved). Any one honest replica suffices for
    every fraud to be punished; the per-tower scorecard makes each
    replica's liveness and accountability measurable. *)

type fault = [ `Up | `Down | `Omit ]

type t

val create :
  ?snapshot_every:int ->
  ?faults:(round:int -> replica:int -> fault) ->
  wid:string ->
  ?mk_store:(int -> Durable.store) ->
  int ->
  t
(** [create ~wid r] builds [r] replicas, each over its own store
    (default: fresh memory stores; pass [mk_store] for file-backed
    replicas). *)

val watch : t -> round:int -> Watchtower.record -> bool
(** Fan the record to every live replica; [true] iff at least one
    accepted and journaled it. Down replicas miss the watch (scored). *)

val end_of_round :
  t -> round:int -> ledger:Daric_chain.Ledger.t ->
  post:(Daric_tx.Tx.t -> unit) -> unit
(** Apply the fault schedule, recover any replica coming back up, and
    let every up replica monitor the shared spent-log window.
    Duplicate revocation posts across replicas are rejected by the
    ledger (same txid / already-spent outpoint) — idempotent. *)

val punished : t -> string list
(** Union of channels punished by any live replica, oldest first. *)

type score = {
  s_idx : int;
  s_alive : bool;
  s_guarded : int;
  s_rounds_served : int;
  s_rounds_down : int;
  s_omissions : int;
  s_recoveries : int;
  s_missed_watches : int;
  s_punished : int;
  s_storage_bytes : int;
  s_wal_bytes : int;  (** current WAL length on the store *)
  s_snapshots : int;
  s_liveness : float;  (** rounds served / rounds scheduled *)
}

val scorecard : t -> score list
val pp_scorecard : Format.formatter -> score list -> unit
