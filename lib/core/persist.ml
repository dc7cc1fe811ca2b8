(** Durable state codecs: versioned binary snapshots of exactly what a
    Daric party must retain per channel and of a watchtower's full
    guarded-set state (records, punished set, spent-log cursor).

    The channel blob IS the party's entire per-channel storage — its
    size is constant in the number of updates. Only quiescent channels
    (flag = 1, no update in flight) are persisted — a crashed
    mid-update party recovers by ForceClose from its last durable
    state, exactly the conservative behaviour the protocol prescribes.
    The tower snapshot is the at-rest half of {!Durable}.

    Each body is one two-way {!Daric_util.Codec} description: the
    channel codec here, on {!Daric_tx.Txcodec} and the key codecs of
    {!Keys}; the snapshot body is {!Watchtower.snapshot}, next to the
    packed arena whose bytes it copies. Every blob opens with a 7-byte
    magic and a format-version byte, checked here like the WAL's frame;
    decoding failures are the typed {!error} variant, never a raw
    exception. *)

module Tx = Daric_tx.Tx
module Txcodec = Daric_tx.Txcodec
module C = Daric_util.Codec
module W = Daric_util.Byteio.Writer

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

let codec_error = function
  | C.Truncated -> Truncated
  | C.Malformed m -> Bad_field m

let encode_blob ~magic (body : 'a C.t) (v : 'a) : string =
  let w = W.create () in
  W.string w magic;
  W.byte w format_version;
  C.write body w v;
  W.contents w

let decode_blob ~magic (body : 'a C.t) (blob : string) : ('a, error) result =
  let h = String.length magic in
  if String.length blob < h then Error Truncated
  else if not (String.starts_with ~prefix:magic blob) then Error Bad_magic
  else if String.length blob = h then Error Truncated
  else if Char.code blob.[h] <> format_version then Error Bad_version
  else
    Result.map_error codec_error (C.decode ~off:(h + 1) body blob)

(* ---- channel encoding --------------------------------------------- *)

let keypair : Keys.keypair C.t =
  C.conv
    (fun sk -> { Keys.sk; pk = Daric_crypto.Schnorr.public_key_of_secret sk })
    (fun (k : Keys.keypair) -> k.Keys.sk)
    C.u32

let cfg : Party.config C.t =
  C.conv
    (fun ((id, role, peer), (bal_a, bal_b), (rel_lock, s0)) ->
      { Party.id; role; peer; bal_a; bal_b; rel_lock; s0 })
    (fun (c : Party.config) ->
      ((c.id, c.role, c.peer), (c.bal_a, c.bal_b), (c.rel_lock, c.s0)))
    (C.triple
       (C.triple C.var_string Keys.role_codec C.var_string)
       (C.pair C.u32 C.u32) (C.pair C.u32 C.u32))

let keys : Keys.t C.t =
  C.conv
    (fun ((main, sp), (rv, rv')) -> { Keys.main; sp; rv; rv' })
    (fun (k : Keys.t) -> ((k.main, k.sp), (k.rv, k.rv')))
    (C.pair (C.pair keypair keypair) (C.pair keypair keypair))

let split : Party.split_data C.t =
  C.conv
    (fun (split_body, split_sig_a, split_sig_b) ->
      { Party.split_body; split_sig_a; split_sig_b })
    (fun (s : Party.split_data) -> (s.split_body, s.split_sig_a, s.split_sig_b))
    (C.triple Txcodec.tx C.var_string C.var_string)

(* A restored channel is quiescent and operational; everything not
   stored is the state such a channel holds. *)
let chan : Party.chan C.t =
  let otx = C.option Txcodec.tx and osig = C.option C.var_string in
  C.conv
    (fun ( (cfg, keys),
           (their_keys, sn, st),
           ((fund, commit_mine, commit_theirs_body), (split, rev_sig_theirs, rev_sig_mine)) ) ->
      { Party.cfg; keys; sctx = Party.sctx_of_keys keys; pinned_pks = [];
        their_keys; tid_mine = None; tid_theirs = None;
        fund; fund_sig_mine = None; fund_sig_theirs = None; sn; st;
        flag = 1; st' = None; commit_mine; commit_theirs_body; split;
        rev_sig_theirs; rev_sig_mine; pending = None;
        requested_theta = None; phase = Party.Operational;
        deadline = None; fin_split = None; commit_on_chain = None;
        split_posted = false; punish_posted = None; outcome = None })
    (fun (c : Party.chan) ->
      ( (c.cfg, c.keys),
        (c.their_keys, c.sn, c.st),
        ( (c.fund, c.commit_mine, c.commit_theirs_body),
          (c.split, c.rev_sig_theirs, c.rev_sig_mine) ) ))
    (C.triple (C.pair cfg keys)
       (C.triple (C.option (Keys.pub_codec C.u32)) C.u32 (C.list Txcodec.output))
       (C.pair (C.triple otx otx otx) (C.triple (C.option split) osig osig)))

(** Serialize a quiescent channel. Fails if an update or closure is in
    flight (persist only between operations). *)
let encode_chan (c : Party.chan) : (string, error) result =
  if c.Party.phase <> Party.Operational then
    Error
      (Bad_field
         (Fmt.str "channel %s is not quiescent (%s)" c.Party.cfg.id
            (Party.phase_to_string c.Party.phase)))
  else Ok (encode_blob ~magic:chan_magic chan c)

(** Restore a channel into [party] (which must not already track it). *)
let restore_chan (party : Party.t) (blob : string) : (unit, error) result =
  match decode_blob ~magic:chan_magic chan blob with
  | Error e -> Error e
  | Ok c ->
      let id = c.Party.cfg.id in
      if Party.find_chan party id <> None then
        Error (Bad_field ("duplicate channel " ^ id))
      else begin
        party.Party.chans <- (id, c) :: party.Party.chans;
        Party.repin_keys c;
        Ok ()
      end

let blob_size (c : Party.chan) : (int, error) result =
  Result.map String.length (encode_chan c)

(* ---- watchtower snapshot ------------------------------------------ *)

let encode_tower (t : Watchtower.t) : string =
  encode_blob ~magic:tower_magic Watchtower.snapshot t

let restore_tower (blob : string) : (Watchtower.t, error) result =
  decode_blob ~magic:tower_magic Watchtower.snapshot blob
