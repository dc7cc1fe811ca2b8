(* Reference watchtower: the differential oracle for
   {!Daric_core.Watchtower}.

   Records are kept boxed in a hashtable keyed by channel id, and every
   poll resolves each guarded channel's funding spender by scanning the
   ledger's whole accepted history — O(channels × history) per round.
   It shares no storage, intake or monitor code with the production
   tower (no arena, no funding index, no spent-log cursor, and its own
   signature check), so a bug in any of them shows up as a
   disagreement. *)

module Tx = Daric_tx.Tx
module Script = Daric_script.Script
module Ledger = Daric_chain.Ledger
module Keys = Daric_core.Keys
module Txs = Daric_core.Txs
module Watchtower = Daric_core.Watchtower
module Schnorr = Daric_crypto.Schnorr
module Sighash = Daric_tx.Sighash

type t = {
  records : (string, Watchtower.record) Hashtbl.t;  (** by channel id *)
  mutable punished : string list;  (** newest first *)
}

let create () : t = { records = Hashtbl.create 16; punished = [] }

(* A record is taken only if each signature verifies, by the reference
   verifier over the uncached message, under the revocation key of the
   counter-party's commit (rv for owner Alice, rv' for owner Bob). *)
let record_valid (r : Watchtower.record) : bool =
  let verifies pk sig_bytes =
    String.length sig_bytes = Schnorr.signature_size
    &&
    match
      ( Sighash.flag_of_byte (Char.code sig_bytes.[Schnorr.signature_size - 1]),
        Schnorr.decode_signature sig_bytes )
    with
    | Some flag, Some sg ->
        Schnorr.verify_naive pk
          (Sighash.message_uncached flag r.rev_body ~input_index:0)
          sg
    | _ -> false
  in
  let rv (k : Keys.pub) =
    match Keys.other_role r.client_role with
    | Keys.Alice -> k.Keys.rv_pk
    | Keys.Bob -> k.Keys.rv'_pk
  in
  verifies (rv r.keys_a) r.sig_a && verifies (rv r.keys_b) r.sig_b

let watch (t : t) (r : Watchtower.record) : bool =
  if record_valid r then begin
    Hashtbl.replace t.records r.channel_id r;
    true
  end
  else false

let unwatch (t : t) ~(channel_id : string) : unit =
  Hashtbl.remove t.records channel_id

let guarded_count (t : t) : int = Hashtbl.length t.records
let punished (t : t) : string list = t.punished

let storage_bytes (t : t) : int =
  Hashtbl.fold (fun _ r acc -> acc + Watchtower.record_bytes r) t.records 0

(** The {!Watchtower.encode_record} bytes of every guarded record,
    sorted. *)
let record_blobs (t : t) : string list =
  List.sort String.compare
    (Hashtbl.fold (fun _ r acc -> Watchtower.encode_record r :: acc)
       t.records [])

(** Which accepted transaction spent [o], by a linear scan of the
    ledger's accepted history — the oracle for {!Ledger.spender_of}. *)
let spender_of_scan (l : Ledger.t) (o : Tx.outpoint) : Tx.t option =
  List.find_map
    (fun (_, (tx : Tx.t)) ->
      if List.exists (fun (i : Tx.input) -> Tx.outpoint_equal i.prevout o)
           tx.inputs
      then Some tx
      else None)
    (Ledger.accepted l)

(* A spend of the funding output is punishable when it is the
   counter-party's commit for a state at or below the revoked index. *)
let react (t : t) (r : Watchtower.record) (spender : Tx.t)
    ~(post : Tx.t -> unit) : unit =
  let seq = match spender.Tx.inputs with [ i ] -> i.sequence | _ -> -1 in
  if seq >= 0 && seq <= r.revoked then
    let script =
      Txs.commit_script_of ~role:(Keys.other_role r.client_role)
        ~keys_a:r.keys_a ~keys_b:r.keys_b ~s0:r.s0 ~i:seq ~rel_lock:r.rel_lock
    in
    match spender.Tx.outputs with
    | [ { Tx.spk = Tx.P2wsh h; _ } ] when String.equal h (Script.hash script) ->
        post
          (Txs.complete_revocation r.rev_body
             ~commit_outpoint:(Tx.outpoint_of spender 0)
             ~commit_script:script ~sig1:r.sig_a ~sig2:r.sig_b);
        t.punished <- r.channel_id :: t.punished;
        Hashtbl.remove t.records r.channel_id
    | _ -> ()

(** Visit every guarded channel not yet punished and react to its
    funding spender, if any. *)
let end_of_round (t : t) ~(ledger : Ledger.t) ~(post : Tx.t -> unit) : unit =
  (* a punish removes the record: snapshot the guarded set first *)
  let guarded = Hashtbl.fold (fun _ r acc -> r :: acc) t.records [] in
  List.iter
    (fun (r : Watchtower.record) ->
      if not (List.mem r.channel_id t.punished) then
        match spender_of_scan ledger r.funding with
        | None -> ()
        | Some spender -> react t r spender ~post)
    guarded
