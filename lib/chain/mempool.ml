(** Economic ledger mode: a fee-market mempool in front of the ledger.

    The UC ledger functionality abstracts fees away; the HTLC-security
    attack of Section 6.1 depends on them, so this module adds:
    - a minimum relay fee rate (1 sat/vbyte in the paper),
    - the 100,000-vbyte standardness cap on transaction size,
    - BIP-125 opt-in replace-by-fee: a replacement must pay strictly
      more absolute fee than everything it conflicts with, plus relay
      fee for its own size, at a fee rate no lower than what it evicts,
    - block production every [rounds_per_block] rounds, filling up to
      [block_vbytes] with the highest-fee-rate transactions. *)

module Tx = Daric_tx.Tx

type config = {
  min_relay_feerate : int;  (** satoshi per vbyte *)
  max_tx_vbytes : int;
  block_vbytes : int;
  rounds_per_block : int;
}

let default_config =
  { min_relay_feerate = 1;
    max_tx_vbytes = 100_000;
    block_vbytes = 1_000_000;
    rounds_per_block = 1 }

type entry = { tx : Tx.t; fee : int; vbytes : int; seq : int }
(** [seq] is the admission sequence number — the fee-rate sort's
    deterministic tie-break (earlier submission wins). *)

let feerate (e : entry) : float = float_of_int e.fee /. float_of_int e.vbytes

type submit_error =
  | Too_large
  | Feerate_below_minimum
  | Unknown_input of Tx.outpoint
  | Negative_fee
  | Rbf_insufficient_fee  (** conflicts with pooled txs it cannot displace *)
  | Invalid of Ledger.reject_reason

let submit_error_to_string = function
  | Too_large -> "transaction exceeds 100,000 vbytes"
  | Feerate_below_minimum -> "fee rate below minimum relay fee"
  | Unknown_input o -> Fmt.str "input %a not found" Tx.pp_outpoint o
  | Negative_fee -> "outputs exceed inputs"
  | Rbf_insufficient_fee -> "replacement does not pay for conflicts (BIP-125)"
  | Invalid r -> Ledger.reject_to_string r

type t = {
  config : config;
  ledger : Ledger.t;
  mutable pool : entry list;
  by_outpoint : (Tx.outpoint, entry) Hashtbl.t;
      (** admission conflict index: each outpoint spent by a pooled
          transaction maps to its entry (the pool holds at most one
          spender per outpoint), so conflict detection is O(inputs)
          instead of a full pool scan *)
  mutable next_seq : int;
  mutable confirmed_fees : int;  (** total fees collected by miners *)
}

let create ?(config = default_config) ~(ledger : Ledger.t) () : t =
  { config;
    ledger;
    pool = [];
    by_outpoint = Hashtbl.create 64;
    next_seq = 0;
    confirmed_fees = 0 }

let ledger (t : t) : Ledger.t = t.ledger

(** Fee of a transaction given the current UTXO view (pool parents are
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

(** Pooled entries spending any of [tx]'s inputs — O(inputs) lookups
    in the admission index, deduplicated (an entry conflicting on two
    outpoints is reported once). *)
let conflicts_with (t : t) (tx : Tx.t) : entry list =
  List.fold_left
    (fun acc (i : Tx.input) ->
      match Hashtbl.find_opt t.by_outpoint i.prevout with
      | Some e when not (List.memq e acc) -> e :: acc
      | _ -> acc)
    [] tx.inputs

let index_add (t : t) (e : entry) : unit =
  List.iter
    (fun (i : Tx.input) -> Hashtbl.replace t.by_outpoint i.prevout e)
    e.tx.inputs

let index_remove (t : t) (e : entry) : unit =
  List.iter
    (fun (i : Tx.input) ->
      (* only clear slots this entry still owns (a replacement may
         already have overwritten some of them) *)
      match Hashtbl.find_opt t.by_outpoint i.prevout with
      | Some e' when e' == e -> Hashtbl.remove t.by_outpoint i.prevout
      | _ -> ())
    e.tx.inputs

(** Submit a transaction to the mempool; applies standardness and
    BIP-125 replacement rules, then queues by fee rate. *)
let submit (t : t) (tx : Tx.t) : (unit, submit_error) result =
  let vb = Tx.vbytes tx in
  if vb > t.config.max_tx_vbytes then Error Too_large
  else
    match fee_of t tx with
    | Error e -> Error e
    | Ok fee ->
        if fee < t.config.min_relay_feerate * vb then Error Feerate_below_minimum
        else
          let admit () =
            let entry = { tx; fee; vbytes = vb; seq = t.next_seq } in
            t.next_seq <- t.next_seq + 1;
            entry
          in
          let conflicts = conflicts_with t tx in
          if conflicts = [] then begin
            let entry = admit () in
            t.pool <- entry :: t.pool;
            index_add t entry;
            Ok ()
          end
          else
            let old_fees = List.fold_left (fun a e -> a + e.fee) 0 conflicts in
            let old_max_rate =
              List.fold_left (fun a e -> Float.max a (feerate e)) 0. conflicts
            in
            if
              fee >= old_fees + (t.config.min_relay_feerate * vb)
              && float_of_int fee /. float_of_int vb >= old_max_rate
            then begin
              List.iter (index_remove t) conflicts;
              let entry = admit () in
              t.pool <-
                entry
                :: List.filter (fun e -> not (List.memq e conflicts)) t.pool;
              index_add t entry;
              Ok ()
            end
            else Error Rbf_insufficient_fee

(* Replace the pool wholesale and rebuild the admission index to
   match (assembly moves many entries at once; a rebuild is O(pool)). *)
let set_pool (t : t) (pool : entry list) : unit =
  t.pool <- pool;
  Hashtbl.reset t.by_outpoint;
  List.iter (index_add t) pool

(* Candidate order for a block: descending fee rate, admission order
   breaking ties — deterministic regardless of pool-list layout. *)
let by_rate_order (a : entry) (b : entry) : int =
  match Float.compare (feerate b) (feerate a) with
  | 0 -> compare a.seq b.seq
  | c -> c

(* Inline greedy block assembly: walk entries by descending fee rate,
   confirm whatever still validates up to the capacity, evict what no
   longer does — the fallback after a rejecting discharge, which
   isolates the bad witness per transaction. *)
let assemble_sequential (t : t) (by_rate : entry list) : Tx.t list =
  let confirmed = ref [] in
  let used = ref 0 in
  let remaining = ref [] in
  List.iter
    (fun e ->
      if !used + e.vbytes <= t.config.block_vbytes then begin
        match Ledger.validate t.ledger e.tx with
        | Ok () ->
            Ledger.record t.ledger e.tx;
            t.confirmed_fees <- t.confirmed_fees + e.fee;
            used := !used + e.vbytes;
            confirmed := e.tx :: !confirmed
        | Error _ ->
            (* inputs were spent by an earlier tx in this block or a
               previous one: evict *)
            ()
      end
      else remaining := e :: !remaining)
    by_rate;
  set_pool t (List.rev !remaining);
  List.rev !confirmed

(* Staged one-pass assembly: the same greedy walk, but acceptances are
   accumulated on a {!Ledger.Staged} view (the live chain state is
   never touched) and every signature check is deferred, then the
   whole block's checks are discharged at once across Dpool domains.
   A transaction rejected by the deferring pass is rejected by the
   inline validator too (deferral only widens acceptance), so eviction
   decisions match the sequential walk. Only an accepting discharge
   commits — in walk order, through {!Ledger.record} — so a rejecting
   discharge simply abandons the view; there is no rollback. *)
let assemble_staged (t : t) (by_rate : entry list) : Tx.t list option =
  let view = Ledger.Staged.create t.ledger in
  let deferred = ref [] in
  let confirmed = ref [] in
  let used = ref 0 in
  let remaining = ref [] in
  List.iter
    (fun e ->
      if !used + e.vbytes <= t.config.block_vbytes then begin
        let mine = ref [] in
        match
          Ledger.validate_deferring_staged view e.tx
            ~defer:(fun d -> mine := d :: !mine)
        with
        | Ok () ->
            deferred := List.rev_append !mine !deferred;
            Ledger.Staged.stage_accept view e.tx;
            used := !used + e.vbytes;
            confirmed := e :: !confirmed
        | Error _ -> ()
      end
      else remaining := e :: !remaining)
    by_rate;
  if Ledger.discharge !deferred then begin
    List.iter
      (fun e ->
        Ledger.record t.ledger e.tx;
        t.confirmed_fees <- t.confirmed_fees + e.fee)
      (List.rev !confirmed);
    set_pool t (List.rev !remaining);
    Some (List.rev_map (fun e -> e.tx) !confirmed)
  end
  else None

(** Advance one round. On block rounds, confirm the highest-fee-rate
    transactions that still validate, up to the block capacity; returns
    the confirmed transactions. Blocks assemble on a staged view with
    witness verification discharged across {!Daric_util.Dpool}
    domains; a rejecting discharge falls back to the inline walk
    (nothing was committed), so confirmation semantics are identical. *)
let tick (t : t) : Tx.t list =
  (* Advance the underlying ledger clock (it has nothing pending). *)
  ignore (Ledger.tick t.ledger);
  if Ledger.height t.ledger mod t.config.rounds_per_block <> 0 then []
  else
    let by_rate = List.sort by_rate_order t.pool in
    match assemble_staged t by_rate with
    | Some txs -> txs
    | None -> assemble_sequential t by_rate

let pool_size (t : t) : int = List.length t.pool
let total_fees_collected (t : t) : int = t.confirmed_fees
