(** Binary transaction codec (full encoding, with witnesses) shared by
    the durable-state snapshots ({!Daric_core.Persist}), the
    watchtower record codec and the ledger's accepted-log compaction.

    Headerless: callers own their magic/version framing (the snapshot
    header, the WAL frame, the arena slot). Decoding errors raise
    {!Bad_blob} or {!Daric_util.Byteio.Reader.Truncated}; callers wrap
    them into their own typed errors. Only canonical encodings decode:
    every accepted field re-encodes to the bytes it was read from.

    [Raw] scripts are deliberately not encodable — they exist for
    tests and funding sources only, and a compactor or snapshotter
    must keep such transactions live ({!packable}). *)

module Tx = Tx
module Script = Daric_script.Script
module W = Daric_util.Byteio.Writer
module R = Daric_util.Byteio.Reader
module Intern = Daric_util.Intern

(* One malformed-input exception for the reader and every codec on it. *)
exception Bad_blob = R.Malformed

let write_spk w (spk : Tx.spk) =
  match spk with
  | Tx.P2wsh h ->
      W.byte w 0;
      W.var_string w h
  | Tx.P2wpkh h ->
      W.byte w 1;
      W.var_string w h
  | Tx.Raw s ->
      W.byte w 2;
      W.var_string w (Script.serialize s)
  | Tx.Op_return -> W.byte w 3

let read_spk r : Tx.spk =
  match R.byte r with
  | 0 -> Tx.P2wsh (Intern.string (R.var_string r))
  | 1 -> Tx.P2wpkh (Intern.string (R.var_string r))
  | 3 -> Tx.Op_return
  | 2 -> raise (Bad_blob "raw scripts are not persisted")
  | _ -> raise (Bad_blob "unknown spk tag")

let write_output w (o : Tx.output) =
  W.u64 w (Int64.of_int o.Tx.value);
  write_spk w o.Tx.spk

let read_output r : Tx.output =
  let v = R.u64 r in
  let value = Int64.to_int v in
  if not (Int64.equal (Int64.of_int value) v) then
    raise (Bad_blob "output value out of range");
  { Tx.value; spk = read_spk r }

let write_list w f l =
  W.varint w (List.length l);
  List.iter (f w) l

let read_list r f =
  let n = R.varint r in
  List.init n (fun _ -> f r)

let write_opt w f = function
  | None -> W.byte w 0
  | Some v ->
      W.byte w 1;
      f w v

let read_opt r f =
  match R.byte r with
  | 0 -> None
  | 1 -> Some (f r)
  | _ -> raise (Bad_blob "unknown option tag")

let write_input w (i : Tx.input) =
  W.var_string w i.Tx.prevout.txid;
  W.u32 w i.Tx.prevout.vout;
  W.u32 w i.Tx.sequence

let read_input r : Tx.input =
  let txid = Intern.string (R.var_string r) in
  let vout = R.u32 r in
  let sequence = R.u32 r in
  { Tx.prevout = { Tx.txid; vout }; sequence }

let opcode_tag (op : Script.op) : int =
  match op with
  | Script.If -> 0
  | Notif -> 1
  | Else -> 2
  | Endif -> 3
  | Verify -> 4
  | Return -> 5
  | Dup -> 6
  | Drop -> 7
  | Swap -> 8
  | Size -> 9
  | Equal -> 10
  | Equalverify -> 11
  | Hash160 -> 12
  | Hash256 -> 13
  | Sha256 -> 14
  | Ripemd160 -> 15
  | Checksig -> 16
  | Checksigverify -> 17
  | Checkmultisig -> 18
  | Checkmultisigverify -> 19
  | Cltv -> 20
  | Csv -> 21
  | Push _ | Num _ | Small _ -> raise (Bad_blob "not an opcode")

let opcode_of_tag = function
  | 0 -> Script.If
  | 1 -> Notif
  | 2 -> Else
  | 3 -> Endif
  | 4 -> Verify
  | 5 -> Return
  | 6 -> Dup
  | 7 -> Drop
  | 8 -> Swap
  | 9 -> Size
  | 10 -> Equal
  | 11 -> Equalverify
  | 12 -> Hash160
  | 13 -> Hash256
  | 14 -> Sha256
  | 15 -> Ripemd160
  | 16 -> Checksig
  | 17 -> Checksigverify
  | 18 -> Checkmultisig
  | 19 -> Checkmultisigverify
  | 20 -> Cltv
  | 21 -> Csv
  | _ -> raise (Bad_blob "unknown opcode tag")

let write_witness_elt w (e : Tx.witness_elt) =
  match e with
  | Tx.Data d ->
      W.byte w 0;
      W.var_string w d
  | Tx.Wscript s ->
      W.byte w 1;
      write_list w
        (fun w op ->
          match op with
          | Script.Push d ->
              W.byte w 0;
              W.var_string w d
          | Script.Num v ->
              W.byte w 1;
              W.u32 w v
          | Script.Small v ->
              W.byte w 2;
              W.byte w v
          | other ->
              W.byte w 3;
              W.byte w (opcode_tag other))
        s

let read_witness_elt r : Tx.witness_elt =
  match R.byte r with
  | 0 -> Tx.Data (Intern.string (R.var_string r))
  | 1 ->
      Tx.Wscript
        (read_list r (fun r ->
             match R.byte r with
             | 0 -> Script.Push (Intern.string (R.var_string r))
             | 1 -> Script.Num (R.u32 r)
             | 2 -> Script.Small (R.byte r)
             | 3 -> opcode_of_tag (R.byte r)
             | _ -> raise (Bad_blob "unknown script-op tag")))
  | _ -> raise (Bad_blob "unknown witness tag")

let write_tx w (tx : Tx.t) =
  write_list w write_input tx.Tx.inputs;
  W.u32 w tx.Tx.locktime;
  write_list w write_output tx.Tx.outputs;
  write_list w (fun w wit -> write_list w write_witness_elt wit) tx.Tx.witnesses

let read_tx r : Tx.t =
  let inputs = read_list r read_input in
  let locktime = R.u32 r in
  let outputs = read_list r read_output in
  let witnesses = read_list r (fun r -> read_list r read_witness_elt) in
  Tx.make ~inputs ~locktime ~outputs ~witnesses ()

(** Whether {!write_tx} can round-trip this transaction: [Raw] output
    scripts are not persisted (they have no stable serialization
    contract) — the ledger compactor keeps such entries live. *)
let packable (tx : Tx.t) : bool =
  List.for_all
    (fun (o : Tx.output) -> match o.Tx.spk with Tx.Raw _ -> false | _ -> true)
    tx.Tx.outputs

let encode_tx (tx : Tx.t) : string =
  let w = W.create () in
  write_tx w tx;
  W.contents w

(** Decode a full {!encode_tx} blob (raises on malformed input — the
    arena is process-private, so corruption is a logic error). *)
let decode_tx_exn (blob : string) : Tx.t =
  let r = R.create blob in
  let tx = read_tx r in
  if not (R.at_end r) then raise (Bad_blob "trailing bytes");
  tx
