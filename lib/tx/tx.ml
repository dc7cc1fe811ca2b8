(** Transactions in the UTXO model of the paper (Section 2.1).

    A transaction is the tuple (txid, Input, nLT, Output, Witness) with
    txid := H([TX]) where the body [TX] := (Input, nLT, Output).

    Weight accounting follows Bitcoin segwit rules with the byte-count
    conventions of the paper's Appendix H (see {!Script.op_size}):
    weight = 4 x non-witness bytes + witness bytes, and one vbyte equals
    four weight units. *)

module Script = Daric_script.Script

type outpoint = { txid : string; vout : int }

let outpoint_equal a b = String.equal a.txid b.txid && a.vout = b.vout

let pp_outpoint ppf (o : outpoint) =
  Fmt.pf ppf "%s:%d" (Daric_util.Hex.short o.txid) o.vout

(** Output condition (scriptPubKey). *)
type spk =
  | P2wsh of string  (** 32-byte script hash; spend reveals the script *)
  | P2wpkh of string  (** 20-byte pubkey hash *)
  | Raw of Script.t  (** bare script (tests and funding sources) *)
  | Op_return  (** provably unspendable *)

type output = { value : int; spk : spk }
(** [value] in satoshi. *)

type input = { prevout : outpoint; sequence : int }

(** One witness-stack element. *)
type witness_elt =
  | Data of string
  | Wscript of Script.t  (** the revealed P2WSH witness script *)

type witness = witness_elt list
(** Bottom-to-top witness stack for one input (script last). *)

(* In-place encoding memo. Carrying the memo on the transaction itself
   (instead of a global table keyed by the whole body) makes txid and
   sighash derivation a field read after the first computation: no
   structural hashing of input/output lists, no equality walk on
   lookup, no long-lived table entries for the GC to promote and mark.

   Races are benign by construction: the memo is a pure function of the
   immutable body, so when two domains compute it concurrently both
   write structurally identical values and either pointer is a correct
   published state (word-sized writes don't tear). A lost update only
   costs a recomputation. *)
type enc = {
  e_body : string;  (** serialized body [TX] *)
  e_float_off : int;  (** ⌊TX⌋ = suffix of [e_body] from this offset *)
  mutable e_txid : string;  (** "" until first demanded — txid costs a
                                hash256, and many signed bodies never
                                need theirs *)
  mutable e_msgs : string option array;
      (** sighash digests: slot 0 = ALL, 1 = ANYPREVOUT,
          2+i = ANYPREVOUT|SINGLE for input index i *)
}

type t = {
  inputs : input list;
  locktime : int;  (** nLockTime *)
  outputs : output list;
  witnesses : witness list;  (** parallel to [inputs] *)
  mutable enc : enc option;  (** encoding memo; never part of equality
                                 or serialization *)
}

let default_sequence = 0xffffffff

let input_of_outpoint ?(sequence = default_sequence) prevout = { prevout; sequence }

let make ?(locktime = 0) ?(witnesses = []) ~inputs ~outputs () : t =
  { inputs; locktime; outputs; witnesses; enc = None }

let empty : t =
  { inputs = []; locktime = 0; outputs = []; witnesses = []; enc = None }

(* ------------------------------------------------------------------ *)
(* Serialization of the body [TX] = (Input, nLT, Output) for txids.   *)

let spk_serialize (w : Daric_util.Byteio.Writer.t) (spk : spk) =
  let module W = Daric_util.Byteio.Writer in
  match spk with
  | P2wsh h ->
      W.byte w 0x00;
      W.var_string w h
  | P2wpkh h ->
      W.byte w 0x01;
      W.var_string w h
  | Raw s ->
      W.byte w 0x02;
      W.var_string w (Script.serialize s)
  | Op_return -> W.byte w 0x03

(* The floating body ⌊TX⌋ = (nLT, Output) is serialized *after* the
   inputs, so the full body embeds it as an exact suffix: one encoding
   pass yields both views, and consumers slice instead of
   re-serializing. *)
let body_serialize_uncached_off (tx : t) : string * int =
  let module W = Daric_util.Byteio.Writer in
  W.with_scratch (fun w ->
      W.varint w (List.length tx.inputs);
      List.iter
        (fun (i : input) ->
          W.var_string w i.prevout.txid;
          W.u32 w i.prevout.vout;
          W.u32 w i.sequence)
        tx.inputs;
      let floating_off = W.length w in
      W.u32 w tx.locktime;
      W.varint w (List.length tx.outputs);
      List.iter
        (fun (o : output) ->
          W.u64 w (Int64.of_int o.value);
          spk_serialize w o.spk)
        tx.outputs;
      (W.contents w, floating_off))

(** Reference encoder: one fresh serialization pass, no memo table. *)
let body_serialize_uncached (tx : t) : string =
  fst (body_serialize_uncached_off tx)

let txid_uncached (tx : t) : string =
  Daric_crypto.Hash.hash256 (body_serialize_uncached tx)

(* The memo is computed once per transaction value and then read off
   the record; see the note on [enc] above for why the unsynchronized
   store is safe when several domains read one transaction. A sealed
   memo (see {!seal}) is marked by a negative floating offset: it
   retains only the txid, and the body is recomputed on the rare
   post-acceptance demand. *)
let encode_body (tx : t) : enc =
  match tx.enc with
  | Some e when e.e_float_off >= 0 -> e
  | prior ->
      let body, off = body_serialize_uncached_off tx in
      let e_txid = match prior with Some e -> e.e_txid | None -> "" in
      let e = { e_body = body; e_float_off = off; e_txid; e_msgs = [||] } in
      tx.enc <- Some e;
      e

(** Drop the memo's serialized body and sighash slots, keeping only
    the txid. Called when a transaction is chain-recorded: nothing
    signs or re-serializes an accepted transaction on the hot path,
    but the ledger retains it forever in the accepted log — without
    sealing, every recorded tx pins ~its own weight in dead memo
    bytes that the major GC must mark for the rest of the run. The
    txid survives (indexes and rollback depend on it being O(1));
    any later body/sighash demand transparently recomputes. *)
let seal (tx : t) : unit =
  match tx.enc with
  | Some e when e.e_float_off >= 0 ->
      let id =
        if String.length e.e_txid <> 0 then e.e_txid
        else Daric_crypto.Hash.hash256 e.e_body
      in
      tx.enc <- Some { e_body = ""; e_float_off = -1; e_txid = id; e_msgs = [||] }
  | _ -> ()

(** [with_witnesses tx ws] is [tx] with its witness stacks replaced —
    the witness-completion idiom. The body is untouched, so the copy
    shares the original's encoding memo (forced here so both views
    benefit from one serialization). *)
let with_witnesses (tx : t) (witnesses : witness list) : t =
  ignore (encode_body tx);
  { tx with witnesses }

let body_serialize (tx : t) : string = (encode_body tx).e_body

(** The serialized body and the offset of its floating suffix, from
    the memo — the zero-copy path: slice, don't re-serialize. *)
let body_encoding (tx : t) : string * int =
  let e = encode_body tx in
  (e.e_body, e.e_float_off)

(** txid = H([TX]); 32 bytes. Memoized in place on the transaction;
    survives {!seal} without reviving the body. *)
let txid (tx : t) : string =
  match tx.enc with
  | Some e when String.length e.e_txid <> 0 -> e.e_txid
  | _ ->
      let e = encode_body tx in
      if String.length e.e_txid <> 0 then e.e_txid
      else begin
        let id = Daric_crypto.Hash.hash256 e.e_body in
        e.e_txid <- id;
        id
      end

let outpoint_of (tx : t) (vout : int) : outpoint = { txid = txid tx; vout }

(** [TX] without inputs — the part authorized by ANYPREVOUT sigs
    (the paper's notation ⌊TX⌋ = (nLT, Output)). *)
let floating_body_serialize (tx : t) : string =
  let e = encode_body tx in
  String.sub e.e_body e.e_float_off (String.length e.e_body - e.e_float_off)

(* ------------------------------------------------------------------ *)
(* Sighash-digest slots, used by {!Sighash.message}. Slot layout is
   documented on [e_msgs]; the array is grown on demand (transactions
   here have at most a handful of inputs). Same benign-race argument
   as the memo itself: slots hold pure functions of the body. *)

let cached_msg (tx : t) (slot : int) : string option =
  let e = encode_body tx in
  if slot < Array.length e.e_msgs then Array.unsafe_get e.e_msgs slot else None

let cache_msg (tx : t) (slot : int) (msg : string) : unit =
  let e = encode_body tx in
  let a = e.e_msgs in
  let a =
    if slot < Array.length a then a
    else begin
      let a' = Array.make (max (slot + 1) 4) None in
      Array.blit a 0 a' 0 (Array.length a);
      e.e_msgs <- a';
      a'
    end
  in
  a.(slot) <- Some msg

(* ------------------------------------------------------------------ *)
(* Weight accounting (Appendix H conventions).                        *)

let output_size (o : output) : int =
  (* 8 value bytes + 1 script-length byte + script *)
  match o.spk with
  | P2wpkh _ -> 8 + 1 + 22 (* OP_0 <20-byte hash>, 31 total *)
  | P2wsh _ -> 8 + 1 + 34 (* OP_0 <32-byte hash>, 43 total *)
  | Raw s -> 8 + 1 + Script.size s
  | Op_return -> 8 + 1 + 1

(** Non-witness serialized size in bytes: version(4) + input count(1) +
    41 per input (36 outpoint + 1 empty scriptSig length + 4 sequence) +
    output count(1) + outputs + locktime(4). *)
let non_witness_size (tx : t) : int =
  4 + 1
  + (41 * List.length tx.inputs)
  + 1
  + List.fold_left (fun acc o -> acc + output_size o) 0 tx.outputs
  + 4

let witness_elt_size = function
  | Data d -> if String.length d <= 1 then 1 else 1 + String.length d
  | Wscript s -> 1 + Script.size s

(** Witness serialized size: 2-byte segwit header plus, per input, a
    1-byte element count and the elements. *)
let witness_size (tx : t) : int =
  2
  + List.fold_left
      (fun acc wit ->
        acc + 1 + List.fold_left (fun a e -> a + witness_elt_size e) 0 wit)
      0 tx.witnesses

(** weight = 4 x non-witness + witness (weight units). *)
let weight (tx : t) : int = (4 * non_witness_size tx) + witness_size tx

(** Virtual size: one vbyte per four weight units, rounded up. *)
let vbytes (tx : t) : int = (weight tx + 3) / 4

let total_output_value (tx : t) : int =
  List.fold_left (fun acc o -> acc + o.value) 0 tx.outputs

let duplicate_input (tx : t) : outpoint option =
  let rec first = function
    | [] -> None
    | i :: rest ->
        if List.exists (fun j -> outpoint_equal i.prevout j.prevout) rest
        then Some i.prevout
        else first rest
  in
  first tx.inputs

let pp ppf (tx : t) =
  Fmt.pf ppf "@[<v>tx %s (nLT=%d, %d in, %d out, %d WU)@]"
    (Daric_util.Hex.short (txid tx))
    tx.locktime (List.length tx.inputs) (List.length tx.outputs) (weight tx)
