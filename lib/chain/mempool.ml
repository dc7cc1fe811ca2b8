(** Economic ledger mode: a fee-market mempool in front of the ledger.

    The UC ledger functionality abstracts fees away; the HTLC-security
    attack of Section 6.1 depends on them, so this module adds:
    - a minimum relay fee rate (1 sat/vbyte in the paper),
    - the 100,000-vbyte standardness cap on transaction size,
    - BIP-125 opt-in replace-by-fee: a replacement must pay strictly
      more absolute fee than everything it conflicts with, plus relay
      fee for its own size, at a fee rate no lower than what it evicts,
    - one block per round, filling up to [block_vbytes] with the
      highest-fee-rate transactions that still validate. *)

module Tx = Daric_tx.Tx

let min_relay_feerate = 1  (* satoshi per vbyte *)
let max_tx_vbytes = 100_000

type entry = { tx : Tx.t; fee : int; vbytes : int; seq : int }
(** [seq] is the admission sequence number — the fee-rate sort's
    deterministic tie-break (earlier submission wins). *)

let feerate (e : entry) : float = float_of_int e.fee /. float_of_int e.vbytes

type submit_error =
  | Too_large
  | Feerate_below_minimum
  | Unknown_input of Tx.outpoint
  | Duplicate_input of Tx.outpoint
  | Negative_fee
  | Rbf_insufficient_fee  (** conflicts with pooled txs it cannot displace *)

let submit_error_to_string = function
  | Too_large -> "transaction exceeds 100,000 vbytes"
  | Feerate_below_minimum -> "fee rate below minimum relay fee"
  | Unknown_input o -> Fmt.str "input %a not found" Tx.pp_outpoint o
  | Duplicate_input o -> Fmt.str "input %a spent twice" Tx.pp_outpoint o
  | Negative_fee -> "outputs exceed inputs"
  | Rbf_insufficient_fee -> "replacement does not pay for conflicts (BIP-125)"

type t = {
  ledger : Ledger.t;
  block_vbytes : int;
  mutable pool : entry list;
  mutable next_seq : int;
  mutable confirmed_fees : int;  (** total fees collected by miners *)
}

let create ?(block_vbytes = 1_000_000) ~(ledger : Ledger.t) () : t =
  { ledger; block_vbytes; pool = []; next_seq = 0; confirmed_fees = 0 }

let ledger (t : t) : Ledger.t = t.ledger

(* Fee of a transaction given the current UTXO view (pool parents are
   not supported: all inputs must be confirmed). *)
let fee_of (t : t) (tx : Tx.t) : (int, submit_error) result =
  let rec total acc (inputs : Tx.input list) =
    match inputs with
    | [] -> Ok acc
    | input :: rest -> (
        match Ledger.find_utxo t.ledger input.prevout with
        | None -> Error (Unknown_input input.prevout)
        | Some utxo -> total (acc + utxo.output.value) rest)
  in
  match total 0 tx.inputs with
  | Error e -> Error e
  | Ok total_in ->
      let fee = total_in - Tx.total_output_value tx in
      if fee < 0 then Error Negative_fee else Ok fee

(* Whether two transactions spend a common outpoint. *)
let conflict (a : Tx.t) (b : Tx.t) : bool =
  List.exists
    (fun (i : Tx.input) ->
      List.exists (fun (j : Tx.input) -> j.prevout = i.prevout) b.inputs)
    a.inputs

(** Submit a transaction to the mempool; applies standardness and
    BIP-125 replacement rules, then queues by fee rate. A transaction
    spending one outpoint twice is refused before its fee is counted,
    so the duplicate never pays toward a replacement. *)
let submit (t : t) (tx : Tx.t) : (unit, submit_error) result =
  let vb = Tx.vbytes tx in
  if vb > max_tx_vbytes then Error Too_large
  else
    match Tx.duplicate_input tx with
    | Some o -> Error (Duplicate_input o)
    | None -> (
        match fee_of t tx with
        | Error e -> Error e
        | Ok fee ->
            if fee < min_relay_feerate * vb then Error Feerate_below_minimum
            else
              let conflicts, others =
                List.partition (fun e -> conflict e.tx tx) t.pool
              in
              let old_fees = List.fold_left (fun a e -> a + e.fee) 0 conflicts in
              let old_max_rate =
                List.fold_left (fun a e -> Float.max a (feerate e)) 0. conflicts
              in
              (* with no conflicts both tests pass: the relay fee was
                 checked above *)
              if
                fee >= old_fees + (min_relay_feerate * vb)
                && float_of_int fee /. float_of_int vb >= old_max_rate
              then begin
                let entry = { tx; fee; vbytes = vb; seq = t.next_seq } in
                t.next_seq <- t.next_seq + 1;
                t.pool <- entry :: others;
                Ok ()
              end
              else Error Rbf_insufficient_fee)

(* Candidate order for a block: descending fee rate, admission order
   breaking ties — deterministic regardless of pool-list layout. *)
let by_rate_order (a : entry) (b : entry) : int =
  match Float.compare (feerate b) (feerate a) with
  | 0 -> compare a.seq b.seq
  | c -> c

(** Advance one round and confirm a block: walk the pool by descending
    fee rate, confirm whatever still validates up to the block
    capacity, evict what no longer does (its inputs were spent by an
    earlier transaction in this block or a previous one, or its
    witness fails), and keep the rest pooled. Returns the confirmed
    transactions. *)
let tick (t : t) : Tx.t list =
  (* Advance the underlying ledger clock (it has nothing pending). *)
  ignore (Ledger.tick t.ledger);
  let confirmed = ref [] in
  let used = ref 0 in
  let remaining = ref [] in
  List.iter
    (fun e ->
      if !used + e.vbytes <= t.block_vbytes then begin
        match Ledger.validate t.ledger e.tx with
        | Ok () ->
            Ledger.record t.ledger e.tx;
            t.confirmed_fees <- t.confirmed_fees + e.fee;
            used := !used + e.vbytes;
            confirmed := e.tx :: !confirmed
        | Error _ -> ()
      end
      else remaining := e :: !remaining)
    (List.sort by_rate_order t.pool);
  t.pool <- List.rev !remaining;
  List.rev !confirmed

let pool_size (t : t) : int = List.length t.pool
let total_fees_collected (t : t) : int = t.confirmed_fees
