(** Durable state codecs: versioned binary snapshots of exactly what a
    Daric party must retain per channel and of a watchtower's full
    guarded-set state (records, punished set, spent-log cursor).

    The channel blob IS the party's entire per-channel storage — its
    size is constant in the number of updates, and a party restarted
    from it can still close, settle and punish. Only quiescent
    channels (flag = 1, no update in flight) are persisted — a crashed
    mid-update party recovers by ForceClose from its last durable
    state, exactly the conservative behaviour the protocol prescribes.

    The tower snapshot is the at-rest half of the {!Durable}
    subsystem: {!encode_tower} every K rounds, journal the
    watch/unwatch/punish/cursor deltas in between ({!Daric_util.Wal}),
    recover with {!restore_tower} + replay.

    The low-level transaction codec lives in {!Daric_tx.Txcodec}
    (shared with the ledger's accepted-log compaction), the key
    codecs in {!Codec}, and the record codec in {!Watchtower} (whose
    packed arena stores exactly those bytes — snapshots blit them out
    without a decode/re-encode round trip).

    Every blob opens with a 7-byte magic and a format-version byte;
    decoding failures are the typed {!error} variant (rendered for the
    CLI by {!error_to_string}), never a raw exception. *)

module Tx = Daric_tx.Tx
module Txcodec = Daric_tx.Txcodec
module W = Daric_util.Byteio.Writer
module R = Daric_util.Byteio.Reader

type error = Bad_magic | Bad_version | Truncated | Bad_field of string

let error_to_string = function
  | Bad_magic -> "bad magic"
  | Bad_version -> "unsupported blob version"
  | Truncated -> "truncated blob"
  | Bad_field m -> m

(* Blob kinds are distinguished by magic; both share the version byte
   that follows it. *)
let chan_magic = "DARICCH"
let tower_magic = "DARICTW"
let format_version = 1

let write_header w ~magic =
  W.string w magic;
  W.byte w format_version

(** Check magic + version; all further decoding errors surface as
    {!Truncated} or {!Bad_field} via {!wrap_decode}. *)
let read_header r ~magic : (unit, error) result =
  match R.string r (String.length magic) with
  | exception R.Truncated -> Error Truncated
  | m when not (String.equal m magic) -> Error Bad_magic
  | _ -> (
      match R.byte r with
      | exception R.Truncated -> Error Truncated
      | v when v <> format_version -> Error Bad_version
      | _ -> Ok ())

let wrap_decode (f : unit -> ('a, error) result) : ('a, error) result =
  try f () with
  | R.Truncated -> Error Truncated
  | Txcodec.Bad_blob m -> Error (Bad_field m)

(* Shared codec aliases (byte format unchanged across the split). *)
let write_tx = Txcodec.write_tx
let read_tx = Txcodec.read_tx
let write_output = Txcodec.write_output
let read_output = Txcodec.read_output
let write_list = Txcodec.write_list
let read_list = Txcodec.read_list
let write_opt = Txcodec.write_opt
let read_opt = Txcodec.read_opt

(* ---- channel encoding --------------------------------------------- *)

(** Serialize a quiescent channel. Fails if an update or closure is in
    flight (persist only between operations). *)
let encode_chan (c : Party.chan) : (string, error) result =
  if c.Party.phase <> Party.Operational then
    Error
      (Bad_field
         (Fmt.str "channel %s is not quiescent (%s)" c.Party.cfg.id
            (Party.phase_to_string c.Party.phase)))
  else begin
    let w = W.create () in
    write_header w ~magic:chan_magic;
    W.var_string w c.Party.cfg.id;
    Codec.write_role w c.Party.cfg.role;
    W.var_string w c.Party.cfg.peer;
    W.u32 w c.Party.cfg.bal_a;
    W.u32 w c.Party.cfg.bal_b;
    W.u32 w c.Party.cfg.rel_lock;
    W.u32 w c.Party.cfg.s0;
    Codec.write_keypair w c.Party.keys.Keys.main;
    Codec.write_keypair w c.Party.keys.Keys.sp;
    Codec.write_keypair w c.Party.keys.Keys.rv;
    Codec.write_keypair w c.Party.keys.Keys.rv';
    write_opt w Codec.write_pub c.Party.their_keys;
    W.u32 w c.Party.sn;
    write_list w write_output c.Party.st;
    write_opt w write_tx c.Party.fund;
    write_opt w write_tx c.Party.commit_mine;
    write_opt w write_tx c.Party.commit_theirs_body;
    write_opt w
      (fun w (sd : Party.split_data) ->
        write_tx w sd.Party.split_body;
        W.var_string w sd.Party.split_sig_a;
        W.var_string w sd.Party.split_sig_b)
      c.Party.split;
    write_opt w (fun w s -> W.var_string w s) c.Party.rev_sig_theirs;
    write_opt w (fun w s -> W.var_string w s) c.Party.rev_sig_mine;
    Ok (W.contents w)
  end

(** Restore a channel into [party] (which must not already track it). *)
let restore_chan (party : Party.t) (blob : string) : (unit, error) result =
  let r = R.create blob in
  match read_header r ~magic:chan_magic with
  | Error e -> Error e
  | Ok () ->
      wrap_decode (fun () ->
          let id = R.var_string r in
          if Party.find_chan party id <> None then
            Error (Bad_field ("duplicate channel " ^ id))
          else begin
            let role = Codec.read_role r in
            let peer = R.var_string r in
            let bal_a = R.u32 r in
            let bal_b = R.u32 r in
            let rel_lock = R.u32 r in
            let s0 = R.u32 r in
            let cfg = { Party.id; role; peer; bal_a; bal_b; rel_lock; s0 } in
            let main = Codec.read_keypair r in
            let sp = Codec.read_keypair r in
            let rv = Codec.read_keypair r in
            let rv' = Codec.read_keypair r in
            let keys = { Keys.main; sp; rv; rv' } in
            let their_keys = read_opt r Codec.read_pub in
            let sn = R.u32 r in
            let st = read_list r read_output in
            let fund = read_opt r read_tx in
            let commit_mine = read_opt r read_tx in
            let commit_theirs_body = read_opt r read_tx in
            let split =
              read_opt r (fun r ->
                  let split_body = read_tx r in
                  let split_sig_a = R.var_string r in
                  let split_sig_b = R.var_string r in
                  { Party.split_body; split_sig_a; split_sig_b })
            in
            let rev_sig_theirs = read_opt r (fun r -> R.var_string r) in
            let rev_sig_mine = read_opt r (fun r -> R.var_string r) in
            if not (R.at_end r) then Error (Bad_field "trailing bytes")
            else begin
              let c : Party.chan =
                { cfg; keys; sctx = Party.sctx_of_keys keys; pinned_pks = [];
                  their_keys; tid_mine = None; tid_theirs = None;
                  fund; fund_sig_mine = None; fund_sig_theirs = None; sn; st;
                  flag = 1; st' = None; commit_mine; commit_theirs_body; split;
                  rev_sig_theirs; rev_sig_mine; pending = None;
                  requested_theta = None; phase = Party.Operational;
                  deadline = None; fin_split = None; commit_on_chain = None;
                  split_posted = false; punish_posted = None; outcome = None }
              in
              party.Party.chans <- (id, c) :: party.Party.chans;
              Party.repin_keys c;
              Ok ()
            end
          end)

let blob_size (c : Party.chan) : (int, error) result =
  Result.map String.length (encode_chan c)

(* ---- watchtower record & snapshot codecs -------------------------- *)

(** One guarded-channel record, as journaled in the durable tower's
    WAL (no header — the WAL frame already carries the version). The
    codec itself lives in {!Watchtower}, next to the packed arena that
    stores exactly these bytes. *)
let encode_record = Watchtower.encode_record

let decode_record (blob : string) : (Watchtower.record, error) result =
  wrap_decode (fun () ->
      let r = R.create blob in
      let rec_ = Watchtower.read_record r in
      if not (R.at_end r) then Error (Bad_field "trailing bytes")
      else Ok rec_)

(** Full tower snapshot: identity, every guarded record, the punished
    list (oldest first), the fresh list and the spent-log cursor.
    Size is O(guarded channels) — each of them O(1) — which is the
    Table 1 storage claim made durable. Record bytes are blitted
    straight from the packed arena (no decode/re-encode). *)
let encode_tower (t : Watchtower.t) : string =
  let w = W.create () in
  write_header w ~magic:tower_magic;
  W.var_string w (Watchtower.wid t);
  W.varint w (Watchtower.guarded_count t);
  Watchtower.iter_record_blobs t (fun blob -> W.string w blob);
  write_list w (fun w s -> W.var_string w s)
    (List.rev (Watchtower.punished t));
  write_list w (fun w s -> W.var_string w s) (Watchtower.fresh_ids t);
  W.u64 w (Int64.of_int (Watchtower.cursor t));
  W.contents w

(** Rebuild a tower from its snapshot, streaming: each record is
    decoded once — to validate it and to read its index fields — and
    the bytes that decode consumed go into the arena as they are (no
    intermediate list, no re-encode; see
    {!Watchtower.restore_record}). The punished ids that follow are
    recorded without reclaiming anything: every record in a snapshot
    was live when it was taken, including one re-watched after its
    punishment. *)
let restore_tower (blob : string) : (Watchtower.t, error) result =
  let r = R.create blob in
  match read_header r ~magic:tower_magic with
  | Error e -> Error e
  | Ok () ->
      wrap_decode (fun () ->
          let wid = R.var_string r in
          let t = Watchtower.create ~wid () in
          let n = R.varint r in
          for _ = 1 to n do
            let off = R.pos r in
            let rec_ = Watchtower.read_record r in
            Watchtower.restore_record t ~fresh:false rec_ blob ~off
              ~len:(R.pos r - off)
          done;
          if Watchtower.guarded_count t <> n then
            Error (Bad_field "duplicate channel record")
          else begin
            List.iter (Watchtower.restore_punished t)
              (read_list r (fun r -> R.var_string r));
            List.iter (Watchtower.mark_fresh t)
              (List.rev (read_list r (fun r -> R.var_string r)));
            Watchtower.set_cursor t (Int64.to_int (R.u64 r));
            if not (R.at_end r) then Error (Bad_field "trailing bytes")
            else Ok t
          end)
