(** Durable watchtower: snapshot + write-ahead-log persistence around
    {!Watchtower}.

    Every state transition of the in-RAM tower is journaled to a
    CRC-framed {!Daric_util.Wal} *before* its external effect is
    released: [watch]/[unwatch] append the full record (it is O(1),
    so the WAL stays O(changes)), and [end_of_round] first runs the
    monitor with posts buffered, journals the round's punishments and
    the new spent-log cursor, and only then hands the buffered
    revocation transactions to the real [post]. Every K rounds the
    whole tower state (O(guarded channels) bytes) is snapshotted and
    the WAL is reset — so the store never exceeds one snapshot plus K
    rounds of deltas.

    Recovery is snapshot + replay: {!recover} loads the latest
    snapshot, replays the WAL suffix (idempotent events — a stale WAL
    over a newer snapshot re-applies harmlessly), and marks replayed
    watches fresh so the next poll re-checks their funding directly
    (it may have been spent while the tower was down). The spent-log
    cursor is restored, so everything spent after the crash is still
    scanned — a crashed-and-recovered tower punishes exactly what the
    never-crashed tower punishes. *)

module Wal = Daric_util.Wal
module Ledger = Daric_chain.Ledger
module Tx = Daric_tx.Tx
module C = Daric_util.Codec

(* ---- stores ------------------------------------------------------- *)

(** Where the snapshot and the WAL live. The two members must refer to
    the same durable location family (e.g. [PATH.snap] and [PATH]). *)
type store = {
  wal_sink : Wal.Sink.t;
  save_snapshot : string -> unit;
  load_snapshot : unit -> string option;
  erase : unit -> unit;  (** drop both halves (fresh [create]) *)
}

(** Volatile store that survives a *simulated* crash: the in-RAM tower
    is dropped, the store object is kept — the test/bench "disk". *)
let memory_store () : store =
  let snapshot = ref None in
  let sink = Wal.Sink.memory () in
  { wal_sink = sink;
    save_snapshot = (fun s -> snapshot := Some s);
    load_snapshot = (fun () -> !snapshot);
    erase =
      (fun () ->
        snapshot := None;
        Wal.Sink.truncate sink 0) }

(** File-backed store: WAL at [path], snapshot at [path ^ ".snap"]
    (written to a temp file and renamed, so a crash mid-snapshot
    leaves the previous one intact). *)
let file_store (path : string) : store =
  let snap_path = path ^ ".snap" in
  let sink = Wal.Sink.file path in
  { wal_sink = sink;
    save_snapshot =
      (fun s ->
        let tmp = snap_path ^ ".tmp" in
        let oc = open_out_bin tmp in
        output_string oc s;
        close_out oc;
        Sys.rename tmp snap_path);
    load_snapshot =
      (fun () ->
        match open_in_bin snap_path with
        | exception Sys_error _ -> None
        | ic ->
            Fun.protect
              ~finally:(fun () -> close_in_noerr ic)
              (fun () ->
                Some (really_input_string ic (in_channel_length ic))));
    erase =
      (fun () ->
        if Sys.file_exists snap_path then Sys.remove snap_path;
        Wal.Sink.truncate sink 0) }

(* ---- journal record kinds ---------------------------------------- *)

let k_watch = 1
let k_unwatch = 2
let k_punish = 3
let k_cursor = 4

(* ---- coordinator -------------------------------------------------- *)

type t = {
  tower : Watchtower.t;
  store : store;
  wal : Wal.t;
  snapshot_every : int;
  mutable rounds_since_snapshot : int;
  mutable journaled_punished : int;
      (** prefix of the tower's punished list already in the journal *)
  mutable journaled_cursor : int;
  mutable snapshots_taken : int;
  mutable last_snapshot_bytes : int;
}

let tower (t : t) : Watchtower.t = t.tower
let store (t : t) : store = t.store
let wal_bytes (t : t) : int = Wal.appended_bytes t.wal
let wal_size (t : t) : int = Wal.size t.wal
let snapshots_taken (t : t) : int = t.snapshots_taken
let snapshot_bytes (t : t) : int = t.last_snapshot_bytes

(** Snapshot now: persist the whole tower state, then reset the WAL.
    A crash between the two leaves snapshot + stale WAL, whose replay
    is idempotent. *)
let snapshot (t : t) : unit =
  let blob = Persist.encode_tower t.tower in
  t.store.save_snapshot blob;
  Wal.reset t.wal;
  t.snapshots_taken <- t.snapshots_taken + 1;
  t.last_snapshot_bytes <- String.length blob;
  t.rounds_since_snapshot <- 0

let mk ?(snapshot_every = 16) (tower : Watchtower.t) (store : store)
    (wal : Wal.t) : t =
  { tower;
    store;
    wal;
    snapshot_every = max 1 snapshot_every;
    rounds_since_snapshot = 0;
    journaled_punished = Watchtower.punished_count tower;
    journaled_cursor = Watchtower.cursor tower;
    snapshots_taken = 0;
    last_snapshot_bytes = 0 }

(** Fresh durable tower over an (erased) store. *)
let create ?snapshot_every ~(wid : string) (store : store) : t =
  store.erase ();
  match Wal.attach store.wal_sink with
  | Error _ | Ok (_, _ :: _, _) -> assert false (* just erased *)
  | Ok (wal, [], _) -> mk ?snapshot_every (Watchtower.create ~wid ()) store wal

type recovery = {
  t : t;
  replayed : int;  (** WAL records applied on top of the snapshot *)
  wal_status : Wal.status;  (** whether a torn tail was truncated *)
  had_snapshot : bool;
}

(** Rebuild from the store: load the snapshot (if any), replay the WAL
    suffix, restore the cursor. [wid] names the tower only when the
    store holds nothing yet. *)
let recover ?snapshot_every ~(wid : string) (store : store) :
    (recovery, Persist.error) result =
  let ( let* ) = Result.bind in
  let* tower, had_snapshot =
    match store.load_snapshot () with
    | None -> Ok (Watchtower.create ~wid (), false)
    | Some blob ->
        let* tw = Persist.restore_tower blob in
        Ok (tw, true)
  in
  let* wal, records, wal_status =
    match Wal.attach store.wal_sink with
    | Ok v -> Ok v
    | Error e -> Error (Persist.Bad_field (Wal.error_to_string e))
  in
  let* () =
    List.fold_left
      (fun acc (r : Wal.record) ->
        let* () = acc in
        if r.kind = k_watch then
          (* the payload is exactly the record's encoding: install it *)
          Result.map_error Persist.codec_error
            (Watchtower.restore_record tower r.payload)
        else if r.kind = k_unwatch then
          Ok (Watchtower.unwatch tower ~channel_id:r.payload)
        else if r.kind = k_punish then
          Ok (Watchtower.mark_punished tower r.payload)
        else if r.kind = k_cursor then
          (* a cursor payload is one non-negative u64 *)
          let* c = Result.map_error Persist.codec_error (C.decode C.u64 r.payload) in
          Ok (Watchtower.set_cursor tower c)
        else Error (Persist.Bad_field (Fmt.str "unknown WAL kind %d" r.kind))
      )
      (Ok ()) records
  in
  let t = mk ?snapshot_every tower store wal in
  Ok { t; replayed = List.length records; wal_status; had_snapshot }

(* ---- journaled operations ----------------------------------------- *)

(** {!Watchtower.watch}, journaled: the record hits the WAL before
    [watch] returns. A crash earlier loses nothing the client cannot
    re-send. The record is encoded once, for both the arena and the
    WAL. *)
let watch (t : t) (r : Watchtower.record) : bool =
  let enc = Watchtower.encode_record r in
  if Watchtower.watch_encoded t.tower r enc then begin
    Wal.append t.wal ~kind:k_watch enc;
    true
  end
  else false

let unwatch (t : t) ~(channel_id : string) : unit =
  match Watchtower.find_record t.tower channel_id with
  | None -> ()
  | Some _ ->
      Watchtower.unwatch t.tower ~channel_id;
      Wal.append t.wal ~kind:k_unwatch channel_id

(** One monitoring round with write-ahead semantics: run the monitor
    with posts buffered, journal the punishments and the cursor
    advance, then release the buffered revocation transactions.
    Snapshots every [snapshot_every] rounds. *)
let end_of_round (t : t) ~(round : int) ~(ledger : Ledger.t)
    ~(post : Tx.t -> unit) : unit =
  let buffered = ref [] in
  Watchtower.end_of_round t.tower ~round ~ledger ~post:(fun tx ->
      buffered := tx :: !buffered);
  (* the round's punishments are the newest [n_new] entries of the
     punished list (newest first): journal them oldest first, walking
     only those *)
  let n_new = Watchtower.punished_count t.tower - t.journaled_punished in
  let rec newest k l acc =
    match l with
    | cid :: rest when k > 0 -> newest (k - 1) rest (cid :: acc)
    | _ -> acc
  in
  List.iter
    (fun cid -> Wal.append t.wal ~kind:k_punish cid)
    (newest n_new (Watchtower.punished t.tower) []);
  t.journaled_punished <- t.journaled_punished + n_new;
  let cursor = Watchtower.cursor t.tower in
  if cursor <> t.journaled_cursor then begin
    Wal.append t.wal ~kind:k_cursor (C.encode C.u64 cursor);
    t.journaled_cursor <- cursor
  end;
  List.iter post (List.rev !buffered);
  t.rounds_since_snapshot <- t.rounds_since_snapshot + 1;
  if t.rounds_since_snapshot >= t.snapshot_every then snapshot t
