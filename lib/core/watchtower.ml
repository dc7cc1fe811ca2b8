(** Daric watchtower with O(1) per-channel storage.

    After every channel update the client hands the watchtower one
    fixed-size record: the reconstruction parameters of the channel's
    commit scripts plus the latest floating revocation transaction with
    both ANYPREVOUT signatures. The record *replaces* the previous one —
    unlike a Lightning watchtower, nothing accumulates.

    Records are retained in packed form: each one is encoded with the
    durable-state codec and stored as a slot in a {!Daric_util.Arena}
    — a few large unscanned [Bytes] chunks — so a tower guarding 100k
    channels presents the major GC with a handful of opaque blocks
    instead of ~20·N boxed words to mark every cycle. [find_record]
    decodes on demand; snapshots blit the packed bytes directly.

    Storage is reclaimed, not merely unindexed: [unwatch] and the
    punish path free the record's arena slot, so a churned tower's
    heap tracks its guarded count, not its lifetime watch count. A
    punished channel needs no record — the revocation transaction is
    already posted.

    Monitoring is driven by the ledger's append-only spent-outpoint
    log: each round the tower reads only the outpoints spent since its
    last poll (a stored cursor) and maps them through a funding-output
    index to the guarded channel, so end-of-round cost is O(newly
    spent outpoints) — independent of both the number of guarded
    channels and the chain length. Records installed since the last
    poll are additionally checked once directly (their funding may
    have been spent before the tower started watching). If a spend is
    a counter-party commit whose (sequence-encoded) state index is at
    most the latest revoked index, the tower completes the revocation
    transaction and posts it instantly. *)

module Tx = Daric_tx.Tx
module Txcodec = Daric_tx.Txcodec
module Ledger = Daric_chain.Ledger
module Arena = Daric_util.Arena
module Intern = Daric_util.Intern
module C = Daric_util.Codec

type record = {
  channel_id : string;
  funding : Tx.outpoint;
  keys_a : Keys.pub;
  keys_b : Keys.pub;
  s0 : int;
  rel_lock : int;
  cash : int;
  client_role : Keys.role;  (** whose funds we guard *)
  revoked : int;  (** latest revoked state index (sn - 1) *)
  rev_body : Tx.t;  (** the client's floating revocation transaction *)
  sig_a : string;  (** revocation-branch signature in Alice position *)
  sig_b : string;  (** revocation-branch signature in Bob position *)
}

(* One guarded channel. The funding outpoint and serialized size are
   kept unpacked — the monitor reads them on every poll that touches
   the channel, and storage accounting must not decode. *)
type entry = {
  mutable e_funding : Tx.outpoint;
  mutable e_rbytes : int;  (** {!record_bytes} of the current record *)
  mutable e_slot : Arena.slot;  (** the record's {!encode_record} bytes *)
}

type t = {
  wid : string;
  arena : Arena.t;  (** packed record bytes *)
  entries : (string, entry) Hashtbl.t;  (** by channel id *)
  by_funding : (Tx.outpoint, string) Hashtbl.t;
      (** guarded funding outpoint → channel id *)
  mutable fresh : string list;
      (** channels (re)watched since the last poll; checked once
          directly in case their funding was spent before watching *)
  punished_set : (string, unit) Hashtbl.t;
  mutable punished_list : string list;  (** newest first, for reporting *)
  mutable cursor : int;  (** position in the ledger's spent log *)
}

let create ~(wid : string) () : t =
  { wid;
    arena = Arena.create ();
    entries = Hashtbl.create 64;
    by_funding = Hashtbl.create 64;
    fresh = [];
    punished_set = Hashtbl.create 16;
    punished_list = [];
    cursor = 0 }

(* ---- record codec (the WAL watch payload and the snapshot's record
   spans) ---- *)

(* Decoded records are transient — the tower retains bytes, and
   [find_record], [react] and recovery decode on demand — so nothing in
   them is interned. *)
let record_codec : record C.t =
  let key = Keys.pub_codec C.u32 in
  C.conv
    (fun ( ((channel_id, funding, keys_a), (keys_b, s0, rel_lock)),
           ((cash, client_role, revoked), (rev_body, sig_a, sig_b)) ) ->
      { channel_id; funding; keys_a; keys_b; s0; rel_lock; cash; client_role;
        revoked; rev_body; sig_a; sig_b })
    (fun r ->
      ( ((r.channel_id, r.funding, r.keys_a), (r.keys_b, r.s0, r.rel_lock)),
        ((r.cash, r.client_role, r.revoked), (r.rev_body, r.sig_a, r.sig_b)) ))
    (C.pair
       (C.pair
          (C.triple C.var_string Txcodec.outpoint key)
          (C.triple key C.u32 C.u32))
       (C.pair
          (C.triple C.u32 Keys.role_codec C.u32)
          (C.triple Txcodec.tx C.var_string C.var_string)))

let encode_record (r : record) : string = C.encode record_codec r

(** Serialized size in bytes of everything retained for one channel:
    two 33-byte key bundles (4 keys each), script parameters, the
    revocation body and two 73-byte signatures. Constant in the number
    of channel updates — the Table 1 watchtower-storage claim. *)
let record_bytes (r : record) : int =
  let keys = 2 * 4 * Daric_crypto.Schnorr.public_key_size in
  let params = 4 * 4 in
  let body = Tx.non_witness_size r.rev_body in
  let sigs = 2 * Daric_crypto.Schnorr.signature_size in
  let outpoint = 36 in
  keys + params + body + sigs + outpoint + String.length r.channel_id

(* ---- entry plumbing ---- *)

(* The arena is process-private and holds only {!encode_record} bytes,
   so a decode failure here is a logic error. *)
let entry_record (t : t) (e : entry) : record =
  match C.decode record_codec (Arena.read t.arena e.e_slot) with
  | Ok r -> r
  | Error e -> failwith ("Watchtower: arena record: " ^ C.error_to_string e)

(* What the tower keeps of a record it installs: its index fields and
   the span of its encoding. *)
type packed = {
  p_id : string;
  p_funding : Tx.outpoint;
  p_rbytes : int;
  p_span : C.span;  (** the record's {!encode_record} bytes *)
}

let pack (r : record) (span : C.span) : packed =
  { p_id = r.channel_id; p_funding = r.funding; p_rbytes = record_bytes r;
    p_span = span }

(* Decoding validates a record and keeps the bytes it was read from —
   canonical, so they are its {!encode_record} — for the arena. *)
let packed_codec : packed C.t = C.spanned record_codec pack (fun p -> p.p_span)

(* Install or overwrite the entry for [p.p_id]: the span is copied into
   the arena as it is (a fresh encoding, a WAL payload, a span of a
   snapshot). The existing slot is reused in place when it fits
   (record sizes are stable across updates of one channel). *)
let put_record (t : t) (p : packed) : unit =
  let { C.src; off; len } = p.p_span in
  match Hashtbl.find_opt t.entries p.p_id with
  | Some e ->
      if not (Tx.outpoint_equal e.e_funding p.p_funding) then begin
        Hashtbl.remove t.by_funding e.e_funding;
        Hashtbl.replace t.by_funding p.p_funding p.p_id;
        e.e_funding <- p.p_funding
      end;
      e.e_rbytes <- p.p_rbytes;
      e.e_slot <- Arena.replace_sub t.arena e.e_slot src ~off ~len
  | None ->
      Hashtbl.replace t.entries p.p_id
        { e_funding = p.p_funding;
          e_rbytes = p.p_rbytes;
          e_slot = Arena.store_sub t.arena src ~off ~len };
      Hashtbl.replace t.by_funding p.p_funding p.p_id

(* Drop a channel's entry and reclaim its storage: the arena slot goes
   back on the free list. *)
let drop_record (t : t) (channel_id : string) : unit =
  match Hashtbl.find_opt t.entries channel_id with
  | None -> ()
  | Some e ->
      Hashtbl.remove t.entries channel_id;
      Hashtbl.remove t.by_funding e.e_funding;
      Arena.free t.arena e.e_slot

(** Check a client record's two revocation-branch signatures in one
    {!Daric_crypto.Schnorr.batch_verify}. The record guards against the
    *counter-party's* commits, whose revocation branch carries the rv
    keys (owner Alice) or rv' keys (owner Bob); both signatures cover
    the ANYPREVOUT message of the floating revocation body. A tower
    that skipped this would store garbage it can never post. *)
let record_valid (r : record) : bool =
  let owner = Keys.other_role r.client_role in
  let rv1, rv2 =
    match owner with
    | Keys.Alice -> (r.keys_a.Keys.rv_pk, r.keys_b.Keys.rv_pk)
    | Keys.Bob -> (r.keys_a.Keys.rv'_pk, r.keys_b.Keys.rv'_pk)
  in
  let item pk sig_bytes =
    if String.length sig_bytes <> Daric_crypto.Schnorr.signature_size then None
    else
      match
        ( Daric_tx.Sighash.flag_of_byte
            (Char.code sig_bytes.[String.length sig_bytes - 1]),
          Daric_crypto.Schnorr.decode_signature sig_bytes )
      with
      | Some flag, Some sg ->
          Some (pk, Daric_tx.Sighash.message flag r.rev_body ~input_index:0, sg)
      | _ -> None
  in
  match (item rv1 r.sig_a, item rv2 r.sig_b) with
  | Some a, Some b -> Daric_crypto.Schnorr.batch_verify_pooled [ a; b ]
  | _ -> false

(** Install or replace the record for a channel — the client calls this
    after each update. Storage stays constant per channel; both the
    replace and the funding-index update are O(1). Records whose
    signatures do not batch-verify are rejected (returns [false]) and
    the previous record, if any, is kept. [enc] is [r]'s
    {!encode_record} bytes, which the caller also journals. *)
let watch_encoded (t : t) (r : record) (enc : string) : bool =
  if not (record_valid r) then false
  else begin
    put_record t (pack r { C.src = enc; off = 0; len = String.length enc });
    t.fresh <- r.channel_id :: t.fresh;
    true
  end

let watch (t : t) (r : record) : bool = watch_encoded t r (encode_record r)

(** Install a journaled record without re-running {!record_valid} — the
    recovery path: the record came from this tower's own WAL (it was
    verified when first watched, and the store is CRC-framed), so the
    batch verification is not paid again. The payload is decoded once,
    to validate it and read its index fields, and installed as it is.
    The next poll re-checks the channel's funding directly: it may
    have been spent while the tower was down. *)
let restore_record (t : t) (payload : string) : (unit, C.error) result =
  match C.decode packed_codec payload with
  | Error e -> Error e
  | Ok p ->
      put_record t p;
      t.fresh <- p.p_id :: t.fresh;
      Ok ()

let unwatch (t : t) ~(channel_id : string) : unit = drop_record t channel_id

let wid (t : t) : string = t.wid

let find_record (t : t) (channel_id : string) : record option =
  match Hashtbl.find_opt t.entries channel_id with
  | None -> None
  | Some e -> Some (entry_record t e)

let punished (t : t) : string list = t.punished_list
let punished_count (t : t) : int = Hashtbl.length t.punished_set
let punished_mem (t : t) (channel_id : string) : bool =
  Hashtbl.mem t.punished_set channel_id

(* Restore a snapshot's punished id: recorded, no record reclaimed —
   every record in a snapshot was live when it was taken (a channel
   re-watched after its punishment keeps its new record). *)
let restore_punished (t : t) (channel_id : string) : unit =
  if not (Hashtbl.mem t.punished_set channel_id) then begin
    t.punished_list <- channel_id :: t.punished_list;
    Hashtbl.replace t.punished_set channel_id ()
  end

(** Replay a journaled punishment (recovery): record the fact without
    posting anything — the revocation transaction was already posted
    (or is already on chain) in the run that journaled it. The
    channel's record, if restored, is reclaimed exactly as the live
    punish path would have. *)
let mark_punished (t : t) (channel_id : string) : unit =
  restore_punished t channel_id;
  drop_record t channel_id

let cursor (t : t) : int = t.cursor
let set_cursor (t : t) (c : int) : unit = t.cursor <- c

(* The fresh list as a function of the tower's logical state: each
   channel once (its newest entry) and only while it is still guarded.
   The live list may repeat a re-watched channel or keep one unwatched
   or punished since; the poll skips both harmlessly, but a snapshot
   must not depend on them, or a restored tower (which drops them)
   would snapshot differently from one that never crashed. *)
let fresh_ids (t : t) : string list =
  let seen = Hashtbl.create 16 in
  List.filter
    (fun cid ->
      Hashtbl.mem t.entries cid
      && (not (Hashtbl.mem seen cid))
      && (Hashtbl.replace seen cid ();
          true))
    t.fresh

let fold_records (t : t) (f : record -> 'a -> 'a) (init : 'a) : 'a =
  Hashtbl.fold (fun _ e acc -> f (entry_record t e) acc) t.entries init

(** Iterate the encoded form of every guarded record — exactly the
    {!encode_record} bytes, blitted straight out of the arena (no
    decode/re-encode round trip). *)
let iter_record_blobs (t : t) (f : string -> unit) : unit =
  Hashtbl.iter (fun _ e -> f (Arena.read t.arena e.e_slot)) t.entries

let guarded_count (t : t) : int = Hashtbl.length t.entries

let storage_bytes (t : t) : int =
  Hashtbl.fold (fun _ e acc -> acc + e.e_rbytes) t.entries 0

(** Bytes of packed record storage currently live in the arena — the
    retained-memory metric of the mem bench. *)
let arena_live_bytes (t : t) : int = Arena.live_bytes t.arena

(** Bytes of arena capacity allocated from the heap (chunks), live or
    free-listed. Bounded by peak concurrent watches, not churn. *)
let arena_capacity_bytes (t : t) : int = Arena.capacity_bytes t.arena

(* ---- snapshot body ---- *)

(* Decoding installs the bytes each record was read from, without
   signature re-verification (they were verified when watched and the
   store is CRC-framed), and records the punished ids without
   reclaiming anything: every record in a snapshot was live when it was
   taken, including one re-watched after its punishment. *)
let snapshot : t C.t =
  C.check
    (fun (wid, records, (punished, fresh, cursor)) ->
      let t = create ~wid () in
      List.iter (put_record t) records;
      if guarded_count t <> List.length records then
        Error "duplicate channel record"
      else begin
        List.iter (restore_punished t) punished;
        t.fresh <- List.filter (Hashtbl.mem t.entries) fresh;
        t.cursor <- cursor;
        Ok t
      end)
    (fun t ->
      let records =
        Hashtbl.fold
          (fun id e acc ->
            let b = Arena.read t.arena e.e_slot in
            { p_id = id; p_funding = e.e_funding; p_rbytes = e.e_rbytes;
              p_span = { C.src = b; off = 0; len = String.length b } }
            :: acc)
          t.entries []
      in
      (t.wid, List.rev records, (List.rev t.punished_list, fresh_ids t, t.cursor)))
    (C.triple C.var_string (C.list packed_codec)
       (C.triple (C.list C.var_string) (C.list C.var_string) C.u64))

(* React to a spend of a guarded funding output: if it is a revoked
   counter-party commit, complete and post the revocation tx — the
   step the channel party takes too. The punished channel's record is
   reclaimed — nothing is left to guard once the revocation
   transaction is on its way. *)
let react (t : t) (r : record) (spender : Tx.t) ~(post : Tx.t -> unit) : unit =
  match
    Txs.punish_revoked ~keys_a:r.keys_a ~keys_b:r.keys_b ~s0:r.s0
      ~rel_lock:r.rel_lock ~owner:(Keys.other_role r.client_role)
      ~revoked:r.revoked ~rev_body:r.rev_body ~sig_a:r.sig_a ~sig_b:r.sig_b
      spender
  with
  | None -> ()
  | Some rv ->
      post rv;
      t.punished_list <- r.channel_id :: t.punished_list;
      Hashtbl.replace t.punished_set r.channel_id ();
      drop_record t r.channel_id

let check_channel (t : t) ~(ledger : Ledger.t) ~(post : Tx.t -> unit)
    (cid : string) : unit =
  match find_record t cid with
  | None -> ()
  | Some r ->
      if not (Hashtbl.mem t.punished_set cid) then (
        match Ledger.spender_of ledger r.funding with
        | None -> ()
        | Some spender -> react t r spender ~post)

(** End-of-round monitoring: punish revoked counter-party commits.
    Cost is O(records watched since the last poll + outpoints spent
    since the last poll) — channels whose funding stayed untouched are
    never visited. *)
let end_of_round (t : t) ~(round : int) ~(ledger : Ledger.t)
    ~(post : Tx.t -> unit) : unit =
  ignore round;
  let fresh = t.fresh in
  t.fresh <- [];
  List.iter (check_channel t ~ledger ~post) fresh;
  t.cursor <-
    Ledger.iter_spent_since ledger ~cursor:t.cursor (fun o ->
        match Hashtbl.find_opt t.by_funding o with
        | None -> ()
        | Some cid -> check_channel t ~ledger ~post cid)

(** Build the current watchtower record for a party's channel. Returns
    [None] until the first update has completed (there is nothing to
    revoke in state 0). The channel id and the signatures are interned —
    the same bytes are also held by the parties, and at N channels the
    duplicates add up. *)
let record_for (p : Party.t) ~(id : string) : record option =
  match Party.find_chan p id with
  | None -> None
  | Some c -> (
      match (Party.latest_revocation c, c.Party.fund) with
      | Some (revoked, rev_body, sig_a, sig_b), Some fund ->
          let keys_a, keys_b = Party.keys_ab c in
          Some
            { channel_id = Intern.string id;
              funding = Tx.outpoint_of fund 0;
              keys_a;
              keys_b;
              s0 = c.Party.cfg.s0;
              rel_lock = c.Party.cfg.rel_lock;
              cash = Party.cash c.Party.cfg;
              client_role = c.Party.cfg.role;
              revoked;
              rev_body;
              sig_a = Intern.string sig_a;
              sig_b = Intern.string sig_b }
      | _ -> None)
