(** The global ledger functionality L(Δ, Σ) of the paper's Appendix C.

    The ledger runs on synchronous rounds. A posted transaction is
    recorded after an adversary-chosen delay of at most [delta] rounds,
    provided it passes the functionality's five validity checks: txid
    uniqueness; input existence and witness validity (with relative
    timelocks measured from each spent output's recording round);
    output validity; value conservation; absolute-timelock expiry.

    Absolute locktimes below 500,000,000 refer to the ledger height
    (one unit per round); larger values to the timestamp, which starts
    at 600,000,000 (leaving ~10^8 state numbers of headroom above the
    500e6 threshold used by Daric channels' S0) and advances by one
    second per round.

    Chain-state reads are indexed — {!spender_of},
    {!recorded_round_of} and {!accepted_count} are O(1), and the
    append-only spent log ({!iter_spent_since}) lets monitors pay only
    for outpoints spent since their last poll. {!tick} runs {!validate}
    on a round's due transactions one at a time in posting order and
    records each accepted one before checking the next. *)

module Tx = Daric_tx.Tx

type utxo = { recorded : int; output : Tx.output }

type reject_reason =
  | Duplicate_txid
  | Missing_input of Tx.outpoint
  | Duplicate_input of Tx.outpoint
      (** the transaction lists this outpoint as input more than once *)
  | Invalid_witness of int * Daric_tx.Spend.error
  | Bad_output
  | Value_overspent
  | Locktime_in_future

val reject_to_string : reject_reason -> string

type event = Accepted of Tx.t | Rejected of Tx.t * reject_reason

type t

val default_compact_depth : int
(** 16 — rounds an accepted transaction stays boxed before the log
    packs it to serialized bytes. *)

val create : ?compact_depth:int -> delta:int -> unit -> t
(** [compact_depth] (≥ 1) sets how many rounds behind the tip an
    accepted transaction is packed into the append-only byte arena;
    reads re-materialize transparently. *)

val height : t -> int
(** Current round (= block height). *)

val time : t -> int
(** Current ledger timestamp. *)

val delta : t -> int
(** The publication-delay bound Δ. *)

val find_utxo : t -> Tx.outpoint -> utxo option
val is_unspent : t -> Tx.outpoint -> bool

val fold_utxos : t -> (Tx.outpoint -> utxo -> 'a -> 'a) -> 'a -> 'a
val total_value : t -> int

val spender_of : t -> Tx.outpoint -> Tx.t option
(** Which accepted transaction spent this outpoint, if any. O(1)
    (hashtable maintained on acceptance). *)

val recorded_round_of : t -> string -> int option
(** Round at which the given txid was recorded, if it was. O(1). *)

val accepted : t -> (int * Tx.t) list
(** All accepted transactions with recording rounds, oldest first.
    The list view is cached; repeated queries against an unchanged
    chain are O(1). *)

val accepted_count : t -> int
(** Number of accepted transactions. O(1). *)

val compacted_count : t -> int
(** Accepted-log entries currently held packed (serialized in the
    compaction arena) rather than as boxed transactions. *)

val pack_live_bytes : t -> int
(** Live packed bytes in the compaction arena. *)

val spent_log_length : t -> int
(** Length of the append-only spent-outpoint log. A monitor stores
    this as its cursor and later reads everything after it. *)

val iter_spent_since : t -> cursor:int -> (Tx.outpoint -> unit) -> int
(** [iter_spent_since t ~cursor f] feeds every outpoint spent since
    [cursor] (in spend order) to [f] and returns the new cursor —
    O(newly spent), independent of chain length and channel count. *)

val validate : t -> Tx.t -> (unit, reject_reason) result
(** The five validity checks against the current state, witnesses
    verified inline per input; a transaction spending one outpoint
    twice is [Duplicate_input]. *)

type checkpoint
(** Snapshot of everything {!record}, {!post}, {!mint} and {!tick}
    mutate; see {!rollback}. *)

val checkpoint : t -> checkpoint
(** O(1) for the immutable UTXO map plus O(pending) for the in-flight
    posting queue (bounded by Δ rounds of postings). *)

val rollback : t -> checkpoint -> unit
(** Undo every recording since the checkpoint — O(recorded since) —
    and restore the round, the pending queue and the mint counter, so
    rolling back works from any round at or after the checkpoint's
    (nested checkpoints may be re-entered in stack order — the model
    checker's DFS backtracking). Raises [Invalid_argument] only if the
    ledger sits at a round *before* the checkpoint's. *)

val pending_due : t -> (int * Tx.t list) list
(** Not-yet-due postings as [(due round, txs in posting order)],
    sorted by due round — deterministic regardless of internal
    hashtable order (used for state fingerprinting). *)

val record : t -> Tx.t -> unit
(** Record a transaction unconditionally (block production and
    environment setup; normal flow goes through {!post}). *)

val post : t -> Tx.t -> delay:int -> unit
(** Submit a transaction; [delay] (clamped to [\[0, delta\]]) models
    the adversary's scheduling. Validation happens when due. *)

val mint : t -> value:int -> spk:Tx.spk -> Tx.outpoint
(** Conjure a fresh funding UTXO (environment setup). *)

val tick : t -> event list
(** Advance one round: deliver due postings, return the round's
    events. *)
