(** Binary transaction codec (full encoding, with witnesses): one
    {!Daric_util.Codec} description per format, shared by the durable
    snapshots, the watchtower record, the protocol messages and the
    ledger's accepted-log compaction. Headerless — callers own their
    framing. [Raw] scripts are deliberately not decodable ({!packable}).
    Every decoded transaction is transient (tower records and packed
    ledger entries are decoded on demand). *)

module Tx = Tx
module Script = Daric_script.Script
module C = Daric_util.Codec

let spk : Tx.spk C.t =
  C.sum
    [ C.case 0 C.var_string (fun h -> Tx.P2wsh h)
        (function Tx.P2wsh h -> Some h | _ -> None);
      C.case 1 C.var_string (fun h -> Tx.P2wpkh h)
        (function Tx.P2wpkh h -> Some h | _ -> None);
      C.case 2
        (C.check (fun _ -> Error "raw scripts are not persisted") Script.serialize
           C.var_string)
        (fun s -> Tx.Raw s)
        (function Tx.Raw s -> Some s | _ -> None);
      C.case 3 (C.fixed 0) (fun _ -> Tx.Op_return)
        (function Tx.Op_return -> Some "" | _ -> None) ]

let output : Tx.output C.t =
  C.conv
    (fun (value, spk) -> { Tx.value; spk })
    (fun (o : Tx.output) -> (o.Tx.value, o.Tx.spk))
    (C.pair C.u64 spk)

let outpoint : Tx.outpoint C.t =
  C.conv
    (fun (txid, vout) -> { Tx.txid; vout })
    (fun (o : Tx.outpoint) -> (o.Tx.txid, o.Tx.vout))
    (C.pair C.var_string C.u32)

let input : Tx.input C.t =
  C.conv
    (fun (prevout, sequence) -> { Tx.prevout; sequence })
    (fun (i : Tx.input) -> (i.Tx.prevout, i.Tx.sequence))
    (C.pair outpoint C.u32)

let opcode : Script.op C.t =
  C.enum
    Script.
      [ (If, 0); (Notif, 1); (Else, 2); (Endif, 3); (Verify, 4); (Return, 5);
        (Dup, 6); (Drop, 7); (Swap, 8); (Size, 9); (Equal, 10);
        (Equalverify, 11); (Hash160, 12); (Hash256, 13); (Sha256, 14);
        (Ripemd160, 15); (Checksig, 16); (Checksigverify, 17);
        (Checkmultisig, 18); (Checkmultisigverify, 19); (Cltv, 20); (Csv, 21) ]

let op : Script.op C.t =
  C.sum
    [ C.case 0 C.var_string (fun d -> Script.Push d)
        (function Script.Push d -> Some d | _ -> None);
      C.case 1 C.u32 (fun v -> Script.Num v)
        (function Script.Num v -> Some v | _ -> None);
      C.case 2 C.u8 (fun v -> Script.Small v)
        (function Script.Small v -> Some v | _ -> None);
      C.case 3 opcode Fun.id
        (function Script.Push _ | Num _ | Small _ -> None | o -> Some o) ]

let witness_elt : Tx.witness_elt C.t =
  C.sum
    [ C.case 0 C.var_string (fun d -> Tx.Data d)
        (function Tx.Data d -> Some d | _ -> None);
      C.case 1 (C.list op) (fun s -> Tx.Wscript s)
        (function Tx.Wscript s -> Some s | _ -> None) ]

let tx : Tx.t C.t =
  C.conv
    (fun ((inputs, locktime), outputs, witnesses) ->
      Tx.make ~inputs ~locktime ~outputs ~witnesses ())
    (fun (t : Tx.t) -> ((t.Tx.inputs, t.Tx.locktime), t.Tx.outputs, t.Tx.witnesses))
    (C.triple (C.pair (C.list input) C.u32) (C.list output)
       (C.list (C.list witness_elt)))

(** Whether {!tx} can round-trip this transaction: [Raw] output
    scripts are not persisted (they have no stable serialization
    contract) — the ledger compactor keeps such entries live. *)
let packable (t : Tx.t) : bool =
  List.for_all
    (fun (o : Tx.output) -> match o.Tx.spk with Tx.Raw _ -> false | _ -> true)
    t.Tx.outputs

let encode_tx (t : Tx.t) : string = C.encode tx t
let decode_tx (blob : string) : (Tx.t, C.error) result = C.decode tx blob
