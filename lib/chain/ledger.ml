(** The global ledger functionality L(Δ, Σ) of Appendix C.

    The ledger runs on synchronous rounds. A posted transaction is
    recorded after an adversary-chosen delay of at most [delta] rounds,
    provided it passes the five validity checks of the functionality:
    txid uniqueness; input existence and witness validity (including
    relative timelocks measured from the recording round of each spent
    output); output validity; value conservation; and absolute-timelock
    validity (nLockTime in the past).

    Absolute locktimes below 500,000,000 refer to the ledger height (one
    unit per round); larger values refer to the ledger timestamp, which
    advances by one second per round from [genesis_time] (Section 4.1's
    block-height vs UNIX-timestamp distinction).

    Chain-state reads are indexed: spender lookups, recorded-round
    lookups and the accepted count are O(1), pending deliveries are
    bucketed by due round, and every spend is appended to an
    append-only *spent log* that watchtowers consume through a cursor —
    monitoring cost is O(newly spent outpoints), independent of both
    channel count and chain history. Each round validates its due
    transactions one at a time in posting order, each against the
    state its predecessors in the round left, verifying every witness
    inline, and records each one it accepts before the next is
    checked. *)

module Tx = Daric_tx.Tx
module Txcodec = Daric_tx.Txcodec
module Spend = Daric_tx.Spend
module Vec = Daric_util.Vec
module Arena = Daric_util.Arena

module Outpoint_map = Map.Make (struct
  type t = Tx.outpoint

  let compare (a : t) (b : t) =
    match String.compare a.txid b.txid with 0 -> compare a.vout b.vout | c -> c
end)

type utxo = { recorded : int; output : Tx.output }

type reject_reason =
  | Duplicate_txid
  | Missing_input of Tx.outpoint
  | Duplicate_input of Tx.outpoint
  | Invalid_witness of int * Spend.error
  | Bad_output
  | Value_overspent
  | Locktime_in_future

let reject_to_string = function
  | Duplicate_txid -> "duplicate txid"
  | Missing_input o -> Fmt.str "missing input %a" Tx.pp_outpoint o
  | Duplicate_input o -> Fmt.str "input %a spent twice" Tx.pp_outpoint o
  | Invalid_witness (i, e) ->
      Fmt.str "invalid witness for input %d: %s" i (Spend.error_to_string e)
  | Bad_output -> "invalid output"
  | Value_overspent -> "outputs exceed inputs"
  | Locktime_in_future -> "nLockTime not yet expired"

type event =
  | Accepted of Tx.t
  | Rejected of Tx.t * reject_reason

let dummy_tx : Tx.t = Tx.empty

let dummy_outpoint : Tx.outpoint = { Tx.txid = ""; vout = 0 }

(** An accepted-log entry. Entries start [Live] and, once
    [compact_depth] rounds deep (reorg-safe territory for every
    rollback user, which operates within a single round), are packed
    to their serialized bytes in the [pack] arena — the major GC then
    scans one slot-record per entry instead of the whole transaction
    graph. Reads re-materialize transparently. Transactions the
    persistence codec cannot express (raw-script outputs from
    adversarial tests) simply stay [Live]. *)
type log_entry = Live of Tx.t | Packed of Arena.slot

type t = {
  delta : int;
  compact_depth : int;
      (** accepted txs this many rounds behind the tip are packed *)
  mutable round : int;
  mutable utxos : utxo Outpoint_map.t;
  txids : (string, int) Hashtbl.t;  (** txid → recording round *)
  accepted_log : (int * log_entry) Vec.t;  (** (round, entry), oldest first *)
  pack : Arena.t;  (** packed bytes of compacted entries *)
  mutable compact_watermark : int;
      (** accepted-log index up to which compaction has scanned *)
  mutable compacted : int;  (** entries currently packed *)
  mutable accepted_view : (int * Tx.t) list;
      (** cached oldest-first list view of [accepted_log] *)
  mutable accepted_view_len : int;  (** log length the view reflects *)
  spenders : (Tx.outpoint, int) Hashtbl.t;
      (** outpoint → accepted-log index of the spending tx *)
  spent_log : Tx.outpoint Vec.t;
      (** every spent outpoint in spend order — the watchtower
          notification feed (append-only; read through cursors) *)
  pending : (int, Tx.t Vec.t) Hashtbl.t;
      (** processing round → due txs, posting order *)
  mutable events : event list;  (** events of the current round, newest first *)
  mutable mints : int;  (** counter making minted coinbase txids unique *)
}

(* The genesis timestamp leaves ample room above the 500e6 locktime
   threshold: channels initialised at S0 = 500e6 can perform ~10^8
   updates before outrunning the clock. *)
let genesis_time = 600_000_000

let default_compact_depth = 16

let create ?(compact_depth = default_compact_depth) ~(delta : int) () : t =
  if delta < 0 then invalid_arg "Ledger.create: negative delta";
  if compact_depth < 1 then invalid_arg "Ledger.create: compact_depth < 1";
  { delta;
    compact_depth;
    round = 0;
    utxos = Outpoint_map.empty;
    txids = Hashtbl.create 64;
    accepted_log = Vec.create ~dummy:(0, Live dummy_tx) ();
    pack = Arena.create ();
    compact_watermark = 0;
    compacted = 0;
    accepted_view = [];
    accepted_view_len = 0;
    spenders = Hashtbl.create 64;
    spent_log = Vec.create ~dummy:dummy_outpoint ();
    pending = Hashtbl.create 16;
    events = [];
    mints = 0 }

let height (t : t) : int = t.round
let time (t : t) : int = genesis_time + t.round
let delta (t : t) : int = t.delta

let locktime_expired (t : t) (locktime : int) : bool =
  if locktime < Daric_script.Interp.locktime_threshold then locktime <= height t
  else locktime <= time t

let find_utxo (t : t) (o : Tx.outpoint) : utxo option = Outpoint_map.find_opt o t.utxos

let is_unspent (t : t) (o : Tx.outpoint) : bool = Outpoint_map.mem o t.utxos

(** Fold over the current UTXO set. *)
let fold_utxos (t : t) (f : Tx.outpoint -> utxo -> 'a -> 'a) (init : 'a) : 'a =
  Outpoint_map.fold f t.utxos init

(** Total value held in the UTXO set (for conservation checks). *)
let total_value (t : t) : int =
  fold_utxos t (fun _ u acc -> acc + u.output.value) 0

(* Re-materialize a log entry (decode of the packed bytes; identity
   for live entries). The arena is process-private and holds only
   {!Txcodec.encode_tx} output, so a decode failure is a logic error. *)
let entry_tx (t : t) (e : log_entry) : Tx.t =
  match e with
  | Live tx -> tx
  | Packed slot -> (
      match Txcodec.decode_tx (Arena.read t.pack slot) with
      | Ok tx -> tx
      | Error e -> failwith ("Ledger: packed entry: " ^ Daric_util.Codec.error_to_string e))

(** Who spent this outpoint, if anyone (it must have existed). O(1)
    index lookup plus at most one packed-entry decode. *)
let spender_of (t : t) (o : Tx.outpoint) : Tx.t option =
  match Hashtbl.find_opt t.spenders o with
  | None -> None
  | Some idx ->
      let _, e = Vec.get t.accepted_log idx in
      Some (entry_tx t e)

(** Round at which [txid] was recorded, if it was. O(1). *)
let recorded_round_of (t : t) (txid : string) : int option =
  Hashtbl.find_opt t.txids txid

(** Number of accepted transactions. O(1). *)
let accepted_count (t : t) : int = Vec.length t.accepted_log

(** All accepted transactions with their recording round, oldest first.
    The list view is cached and only rebuilt after new recordings, so
    repeated queries against an unchanged chain are O(1). *)
let accepted (t : t) : (int * Tx.t) list =
  if t.accepted_view_len <> Vec.length t.accepted_log then begin
    let acc = ref [] in
    Vec.iter t.accepted_log (fun (r, e) -> acc := (r, entry_tx t e) :: !acc);
    t.accepted_view <- List.rev !acc;
    t.accepted_view_len <- Vec.length t.accepted_log
  end;
  t.accepted_view

(* ---------------- accepted-log compaction ---------------- *)

(** Entries currently held packed (vs live) in the accepted log. *)
let compacted_count (t : t) : int = t.compacted

let pack_live_bytes (t : t) : int = Arena.live_bytes t.pack

(* Pack every entry recorded at least [compact_depth] rounds ago. The
   log is in nondecreasing round order, so one watermark cursor makes
   this amortized O(1) per accepted transaction. *)
let compact_tail (t : t) : unit =
  let n = Vec.length t.accepted_log in
  let horizon = t.round - t.compact_depth in
  let continue_ = ref true in
  while !continue_ && t.compact_watermark < n do
    let r, e = Vec.get t.accepted_log t.compact_watermark in
    if r > horizon then continue_ := false
    else begin
      (match e with
      | Live tx when Txcodec.packable tx ->
          let slot = Arena.store t.pack (Txcodec.encode_tx tx) in
          Vec.set t.accepted_log t.compact_watermark (r, Packed slot);
          t.compacted <- t.compacted + 1
      | Live _ | Packed _ -> ());
      t.compact_watermark <- t.compact_watermark + 1
    end
  done

(* ---------------- spent-outpoint notification feed ---------------- *)

(** Length of the append-only spent log; a monitor stores this as its
    cursor and later asks for everything after it. *)
let spent_log_length (t : t) : int = Vec.length t.spent_log

(** [iter_spent_since t ~cursor f] feeds every outpoint spent since
    [cursor] (in spend order) to [f] and returns the new cursor. Cost
    is O(newly spent), regardless of chain length or channel count. *)
let iter_spent_since (t : t) ~(cursor : int) (f : Tx.outpoint -> unit) : int =
  Vec.iter_from t.spent_log ~from:cursor f;
  Vec.length t.spent_log

(** The five validity checks against the current state, witnesses
    verified inline per input. An outpoint listed twice is refused
    before any input is looked up: it would count twice toward value
    conservation. *)
let validate (t : t) (tx : Tx.t) : (unit, reject_reason) result =
  if Hashtbl.mem t.txids (Tx.txid tx) then Error Duplicate_txid
  else if not (locktime_expired t tx.locktime) then Error Locktime_in_future
  else if
    List.exists (fun (o : Tx.output) -> o.value <= 0) tx.outputs
    || tx.outputs = []
  then Error Bad_output
  else
    match Tx.duplicate_input tx with
    | Some o -> Error (Duplicate_input o)
    | None ->
        (* inputs exist and witnesses verify *)
        let rec check_inputs i (inputs : Tx.input list) total_in =
          match inputs with
          | [] ->
              if Tx.total_output_value tx > total_in then Error Value_overspent
              else Ok ()
          | input :: rest -> (
              match find_utxo t input.prevout with
              | None -> Error (Missing_input input.prevout)
              | Some utxo -> (
                  let input_age = t.round - utxo.recorded in
                  match
                    Spend.verify_input tx ~input_index:i ~spent:utxo.output
                      ~input_age
                  with
                  | Error e -> Error (Invalid_witness (i, e))
                  | Ok () ->
                      check_inputs (i + 1) rest (total_in + utxo.output.value)))
        in
        check_inputs 0 tx.inputs 0

let record (t : t) (tx : Tx.t) =
  let txid = Tx.txid tx in
  Hashtbl.replace t.txids txid t.round;
  Vec.push t.accepted_log (t.round, Live tx);
  let idx = Vec.length t.accepted_log - 1 in
  List.iter
    (fun (input : Tx.input) ->
      t.utxos <- Outpoint_map.remove input.prevout t.utxos;
      Hashtbl.replace t.spenders input.prevout idx;
      Vec.push t.spent_log input.prevout)
    tx.inputs;
  List.iteri
    (fun vout output ->
      t.utxos <-
        Outpoint_map.add { Tx.txid; vout } { recorded = t.round; output } t.utxos)
    tx.outputs;
  (* The tx is now retained forever in the accepted log; drop its
     encode/sighash memo (txid survives) so the log doesn't pin dead
     serialization bytes in the heap the major GC keeps marking. *)
  Tx.seal tx;
  t.events <- Accepted tx :: t.events

(* ---------------- journaled rollback ---------------- *)

(** A checkpoint of everything {!record}, {!post}, {!mint} and {!tick}
    mutate. The UTXO set is an immutable map (O(1) to snapshot) and
    the pending queue is tiny (bounded by Δ rounds of postings), so a
    checkpoint costs O(pending) and a rollback O(recorded since
    checkpoint). Rolling back restores the round too, so a checkpoint
    taken at round r can be re-entered from any later round — the
    stack discipline the model checker's DFS backtracking relies on.
    Rolling back to a checkpoint from a round *before* it was taken is
    meaningless and raises [Invalid_argument]. *)
type checkpoint = {
  c_round : int;
  c_utxos : utxo Outpoint_map.t;
  c_events : event list;
  c_accepted_len : int;
  c_spent_len : int;
  c_mints : int;
  c_pending : (int * Tx.t list) list;  (** due-round buckets, snapshotted *)
}

let checkpoint (t : t) : checkpoint =
  { c_round = t.round;
    c_utxos = t.utxos;
    c_events = t.events;
    c_accepted_len = Vec.length t.accepted_log;
    c_spent_len = Vec.length t.spent_log;
    c_mints = t.mints;
    c_pending =
      Hashtbl.fold
        (fun due bucket acc -> (due, Vec.to_list bucket) :: acc)
        t.pending [] }

let rollback (t : t) (c : checkpoint) : unit =
  if t.round < c.c_round then
    invalid_arg "Ledger.rollback: checkpoint from a future round";
  Vec.iter_from t.accepted_log ~from:c.c_accepted_len (fun (_, e) ->
      let tx = entry_tx t e in
      (match e with
      | Packed slot ->
          Arena.free t.pack slot;
          t.compacted <- t.compacted - 1
      | Live _ -> ());
      Hashtbl.remove t.txids (Tx.txid tx);
      List.iter
        (fun (i : Tx.input) -> Hashtbl.remove t.spenders i.prevout)
        tx.inputs);
  Vec.truncate t.accepted_log c.c_accepted_len;
  if t.compact_watermark > c.c_accepted_len then
    t.compact_watermark <- c.c_accepted_len;
  Vec.truncate t.spent_log c.c_spent_len;
  t.utxos <- c.c_utxos;
  t.events <- c.c_events;
  t.round <- c.c_round;
  t.mints <- c.c_mints;
  Hashtbl.reset t.pending;
  List.iter
    (fun (due, txs) ->
      let bucket = Vec.create ~dummy:dummy_tx () in
      List.iter (Vec.push bucket) txs;
      Hashtbl.replace t.pending due bucket)
    c.c_pending;
  (* the cached oldest-first view may reflect rolled-back entries *)
  if t.accepted_view_len > c.c_accepted_len then begin
    t.accepted_view <- [];
    t.accepted_view_len <- 0
  end

(** Not-yet-due postings as [(due round, txs in posting order)],
    sorted by due round — the model checker folds this into its state
    fingerprint (hashtable iteration order must not leak in). *)
let pending_due (t : t) : (int * Tx.t list) list =
  Hashtbl.fold
    (fun due bucket acc -> (due, Vec.to_list bucket) :: acc)
    t.pending []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

(** [post t tx ~delay] submits [tx]; the adversary-chosen [delay] is
    clamped to [0, delta]. The transaction is (re)validated when due.
    Bucketed by processing round: a delay of d lands at round
    [round + max d 1] (a 0-delay post is still processed at the next
    tick, as the list-based pending queue always did). *)
let post (t : t) (tx : Tx.t) ~(delay : int) =
  let delay = max 0 (min t.delta delay) in
  let due = t.round + max delay 1 in
  match Hashtbl.find_opt t.pending due with
  | Some bucket -> Vec.push bucket tx
  | None ->
      let bucket = Vec.create ~dummy:dummy_tx () in
      Vec.push bucket tx;
      Hashtbl.add t.pending due bucket

(** [mint t ~value ~spk] conjures a fresh funding UTXO (environment
    setup — stands in for pre-existing on-chain coins). *)
let mint (t : t) ~(value : int) ~(spk : Tx.spk) : Tx.outpoint =
  t.mints <- t.mints + 1;
  (* A unique synthetic input keeps the txids of otherwise-identical
     minted outputs distinct; [record] bypasses input validation. *)
  let coinbase =
    { Tx.prevout = { Tx.txid = Fmt.str "coinbase#%d" t.mints; vout = 0 };
      sequence = Tx.default_sequence }
  in
  let tx =
    Tx.make ~inputs:[ coinbase ] ~outputs:[ { Tx.value; spk } ] ()
  in
  record t tx;
  { Tx.txid = Tx.txid tx; vout = 0 }

(** Advance one round: validate each due pending transaction (in
    posting order) with {!validate}, record the accepted ones, and
    return this round's events. *)
let tick (t : t) : event list =
  t.round <- t.round + 1;
  t.events <- [];
  (match Hashtbl.find_opt t.pending t.round with
  | None -> ()
  | Some bucket ->
      Hashtbl.remove t.pending t.round;
      Vec.iter bucket (fun tx ->
          match validate t tx with
          | Ok () -> record t tx
          | Error reason -> t.events <- Rejected (tx, reason) :: t.events));
  compact_tail t;
  List.rev t.events
