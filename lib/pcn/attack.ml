(** The HTLC-security (channel-closure delay) attack of Section 6.1.

    The adversary runs nodes M1 and M2 with N eltoo channels from M1 to
    victims V_1..V_N and routes N simultaneous HTLC payments of A coins
    through them. After M2 collects the payments, M1 refuses to update
    her channels, and when the victims try to close on-chain she keeps
    them pinned with *delay transactions*: one transaction per block
    that spends every channel's current on-chain head with another
    outdated update state, paying a fee larger than A. By BIP-125, a
    victim wanting to evict it must out-bid the full absolute fee —
    irrational when the HTLC at stake is itself worth A. Once the HTLC
    timelocks expire, the adversary finally lets the latest states
    settle and races the victims for the HTLC outputs.

    Against Daric the same adversary is powerless: the only transaction
    that can spend a published revoked commit within the dispute window
    is the victim's revocation transaction (the split path is
    CSV-blocked and there is nothing to out-bid), and publishing a
    revoked commit forfeits the entire channel balance. *)

module Tx = Daric_tx.Tx
module Sighash = Daric_tx.Sighash
module Ledger = Daric_chain.Ledger
module Mempool = Daric_chain.Mempool
module Eltoo = Daric_schemes.Eltoo
module Keys = Daric_core.Keys
module Schnorr = Daric_crypto.Schnorr

type config = {
  n_channels : int;
  htlc_value : int;  (** A, in satoshi *)
  channel_capacity : int;
  timelock_blocks : int;  (** HTLC expiry measured in blocks (144 = 3 days
                              at one min-fee confirmation per 30 min) *)
  victim_fee : int;  (** fee a victim is willing to attach to an override *)
  race_win_prob : float;  (** adversary's chance in the post-expiry race *)
  seed : int;
}

let default_config =
  { n_channels = 10;
    htlc_value = 100_000;
    channel_capacity = 1_000_000;
    timelock_blocks = 12;
    victim_fee = 1_000;
    race_win_prob = 0.5;
    seed = 0xA77AC }

(** Paper-scale constants (Section 6.1). *)
module Analytic = struct
  (** Bytes per input-output channel pair in a delay transaction. *)
  let pair_witness_bytes = 222.

  let pair_non_witness_bytes = 84.
  let pair_vbytes = (0.25 *. pair_witness_bytes) +. pair_non_witness_bytes

  (** ~715 channels fit under the 100,000-vbyte standardness cap. *)
  let max_channels_per_delay_tx ?(max_vbytes = 100_000.) () : int =
    int_of_float (max_vbytes /. pair_vbytes)

  (** 144 delay transactions over a 3-day timelock at one min-fee
      confirmation per 30 minutes. *)
  let delay_txs_before_expiry ?(timelock_hours = 72.)
      ?(inclusion_minutes = 30.) () : int =
    int_of_float (timelock_hours *. 60. /. inclusion_minutes)

  (** Attacker cost (total delay fees) and maximum revenue, in units of
      the HTLC value A. *)
  let cost_over_a () = delay_txs_before_expiry ()
  let max_revenue_over_a () = max_channels_per_delay_tx ()

  let profitable () = max_revenue_over_a () > cost_over_a ()
end

type eltoo_result = {
  blocks : int;
  delay_txs_confirmed : int;
  adversary_fees_paid : int;
  victim_overrides_rejected : int;  (** RBF refusals (insufficient fee) *)
  victims_escaped_in_time : int;  (** latest state on chain before expiry *)
  htlcs_claimed_by_adversary : int;
  adversary_net : int;  (** htlc revenue - fees *)
}

(** Per-channel tracking: on-chain head output and its state index. *)
type head = { mutable outpoint : Tx.outpoint; mutable state : int }
(* state = -1 means the head is still the funding output *)

let mk_fee_input (ledger : Ledger.t) (kp : Keys.keypair) ~(value : int) :
    Tx.outpoint =
  Ledger.mint ledger ~value
    ~spk:(Tx.P2wpkh (Daric_crypto.Hash.hash160 (Keys.enc kp.Keys.pk)))

(** Mint a fresh fee source and attach it with a change output
    (Section 8 fee handling — the channel inputs carry
    ANYPREVOUT|SINGLE signatures and survive the modification). *)
let add_fee (ledger : Ledger.t) (kp : Keys.keypair) ~(fee : int)
    ~(fund_value : int) (tx : Tx.t) : Tx.t =
  let src = mk_fee_input ledger kp ~value:fund_value in
  Daric_tx.Fee.attach tx ~source:src ~source_value:fund_value ~fee
    ~key_sk:kp.Keys.sk

(** Run the delay attack against eltoo channels on the economic
    ledger. One mempool tick = one block = one minimum-fee
    confirmation opportunity. *)
let run_eltoo (cfg : config) : eltoo_result =
  let rng = Daric_util.Rng.create ~seed:cfg.seed in
  let ledger = Ledger.create ~delta:0 () in
  let mp = Mempool.create ~ledger () in
  let adv_key = Keys.keygen rng and victim_key = Keys.keygen rng in
  (* N channels; the adversary keeps every superseded state. *)
  let n_states = cfg.timelock_blocks + 2 in
  let channels =
    Array.init cfg.n_channels (fun _ ->
        Eltoo.create ~ledger ~rng ~bal_a:(cfg.channel_capacity / 2)
          ~bal_b:(cfg.channel_capacity / 2) ())
  in
  let old_states =
    Array.map
      (fun ch ->
        Array.init n_states (fun _ ->
            Eltoo.update ch ~bal_a:(cfg.channel_capacity / 2)
              ~bal_b:(cfg.channel_capacity / 2)))
      channels
  in
  let heads =
    Array.map
      (fun ch -> { outpoint = Eltoo.funding_outpoint ch; state = -1 })
      channels
  in
  let victim_escaped = Array.make cfg.n_channels false in
  let delay_confirmed = ref 0 in
  let fees_paid = ref 0 in
  let overrides_rejected = ref 0 in
  (* The adversary's delay-transaction fee exceeds A (set equal to A as
     in the paper's cost analysis). *)
  let delay_fee = cfg.htlc_value in
  let build_delay ~(block : int) : Tx.t option =
    (* state used this block must exceed every current head state and
       stay below the latest (n_states) *)
    let next_state =
      Array.fold_left (fun acc h -> max acc (h.state + 1)) 0 heads
    in
    if next_state >= n_states then None
    else
      let inputs, outputs, witnesses =
        Array.to_list
          (Array.mapi
             (fun i h ->
               let ch = channels.(i) in
               let body, sigs = old_states.(i).(next_state) in
               let from =
                 if h.state < 0 then `Funding else `Update h.state
               in
               let completed =
                 Eltoo.complete_update ch (body, sigs) ~from ~outpoint:h.outpoint
               in
               ( List.hd completed.Tx.inputs,
                 List.hd completed.Tx.outputs,
                 List.hd completed.Tx.witnesses ))
             heads)
        |> fun l ->
        ( List.map (fun (a, _, _) -> a) l,
          List.map (fun (_, b, _) -> b) l,
          List.map (fun (_, _, c) -> c) l )
      in
      ignore block;
      let tx =
        Tx.make ~inputs
          ~locktime:((channels.(0)).Eltoo.s0 + next_state)
          ~outputs ~witnesses ()
      in
      Some (add_fee ledger adv_key ~fee:delay_fee ~fund_value:(2 * delay_fee) tx)
  in
  let victim_override (i : int) ~(fee : int) : Tx.t =
    let ch = channels.(i) in
    let h = heads.(i) in
    let from = if h.state < 0 then `Funding else `Update h.state in
    let tx = Eltoo.latest_update_completed ch ~from ~outpoint:h.outpoint in
    add_fee ledger victim_key ~fee ~fund_value:(2 * fee) tx
  in
  let update_heads ?(count_escapes = true) (confirmed : Tx.t list) =
    List.iter
      (fun tx ->
        (* a confirmed tx whose output j pays channel j's capacity under
           an update script moves that channel's head *)
        let txid = Tx.txid tx in
        List.iteri
          (fun j (_o : Tx.output) ->
            if j < cfg.n_channels && List.length tx.Tx.inputs > j then begin
              (* delay tx: all channels advance to its state *)
              let state = tx.Tx.locktime - (channels.(0)).Eltoo.s0 in
              if List.length tx.Tx.outputs > cfg.n_channels then begin
                heads.(j).outpoint <- { Tx.txid; vout = j };
                heads.(j).state <- state
              end
            end)
          tx.Tx.outputs;
        (* single-channel victim override: exactly 2 outputs *)
        if List.length tx.Tx.outputs = 2 then
          Array.iteri
            (fun i h ->
              if
                List.exists
                  (fun (inp : Tx.input) -> Tx.outpoint_equal inp.prevout h.outpoint)
                  tx.Tx.inputs
              then begin
                h.outpoint <- { Tx.txid; vout = 0 };
                h.state <- tx.Tx.locktime - (channels.(0)).Eltoo.s0;
                if count_escapes && h.state = (channels.(i)).Eltoo.sn then
                  victim_escaped.(i) <- true
              end)
            heads)
      confirmed
  in
  (* --- main block loop until the HTLC timelock expires --- *)
  for block = 1 to cfg.timelock_blocks do
    (* the adversary pins every channel with the next delay transaction *)
    (match build_delay ~block with
    | Some tx -> (
        match Mempool.submit mp tx with
        | Ok () -> ()
        | Error e ->
            failwith ("adversary submit failed: " ^ Mempool.submit_error_to_string e))
    | None -> ());
    (* victims now face BIP-125: evicting the delay transaction would
       cost more than its full absolute fee (> A) — their modest-fee
       overrides are rejected *)
    Array.iteri
      (fun i _ ->
        if not victim_escaped.(i) then
          match Mempool.submit mp (victim_override i ~fee:cfg.victim_fee) with
          | Ok () -> ()
          | Error Mempool.Rbf_insufficient_fee -> incr overrides_rejected
          | Error _ -> ())
      heads;
    let confirmed = Mempool.tick mp in
    List.iter
      (fun tx ->
        if List.length tx.Tx.outputs > 2 then begin
          incr delay_confirmed;
          fees_paid := !fees_paid + delay_fee
        end)
      confirmed;
    update_heads confirmed
  done;
  (* every channel whose latest state confirmed BEFORE expiry redeems
     its HTLC safely; freeze that count now *)
  let escaped = Array.fold_left (fun a b -> if b then a + 1 else a) 0 victim_escaped in
  (* --- expiry: adversary stops; victims settle; the HTLC race --- *)
  Array.iteri
    (fun i _ ->
      if not victim_escaped.(i) then
        match Mempool.submit mp (victim_override i ~fee:cfg.victim_fee) with
        | Ok () -> ()
        | Error _ -> ())
    heads;
  let confirmed = Mempool.tick mp in
  update_heads ~count_escapes:false confirmed;
  let raced = cfg.n_channels - escaped in
  let adv_wins = ref 0 in
  for _ = 1 to raced do
    if Daric_util.Rng.bool rng cfg.race_win_prob then incr adv_wins
  done;
  { blocks = cfg.timelock_blocks;
    delay_txs_confirmed = !delay_confirmed;
    adversary_fees_paid = !fees_paid;
    victim_overrides_rejected = !overrides_rejected;
    victims_escaped_in_time = escaped;
    htlcs_claimed_by_adversary = !adv_wins;
    adversary_net = (!adv_wins * cfg.htlc_value) - !fees_paid }

type daric_result = {
  old_commits_posted : int;
  punished_within_window : int;
  adversary_capacity_lost : int;
  htlcs_claimed : int;  (** always 0: the attack does not apply *)
}

(** The same adversary against Daric channels: publishing any old
    commit hands the whole channel to the victim; there is no
    transaction with which to pin the revocation. *)
let run_daric (cfg : config) : daric_result =
  let module Party = Daric_core.Party in
  let module Driver = Daric_core.Driver in
  let d = Driver.create ~delta:1 ~seed:cfg.seed () in
  let adv = Party.create ~pid:"M1" ~seed:(cfg.seed + 1) () in
  Driver.add_party d adv;
  let victims =
    List.init cfg.n_channels (fun i ->
        let v = Party.create ~pid:(Fmt.str "V%d" i) ~seed:(cfg.seed + 10 + i) () in
        Driver.add_party d v;
        v)
  in
  let old_commits = ref [] in
  List.iteri
    (fun i v ->
      let id = Fmt.str "chan%d" i in
      Driver.open_channel d ~id ~alice:adv ~bob:v
        ~bal_a:(cfg.channel_capacity / 2) ~bal_b:(cfg.channel_capacity / 2) ();
      if not (Driver.run_until_operational d ~id ~alice:adv ~bob:v) then
        failwith "channel failed to open";
      (* snapshot the adversary's state-0 commit, then update twice *)
      let c = Party.chan_exn adv id in
      old_commits := (id, v, Option.get c.Party.commit_mine) :: !old_commits;
      let pk_a, pk_b = Party.main_pks c in
      let theta k =
        Daric_core.Txs.balance_state ~pk_a ~pk_b
          ~bal_a:((cfg.channel_capacity / 2) - (k * 1000))
          ~bal_b:((cfg.channel_capacity / 2) + (k * 1000))
      in
      assert (Driver.update_channel d ~id ~initiator:adv ~responder:v ~theta:(theta 1));
      assert (Driver.update_channel d ~id ~initiator:adv ~responder:v ~theta:(theta 2)))
    victims;
  (* the adversary goes rogue and replays all old states *)
  Driver.corrupt d "M1";
  List.iter (fun (_, _, commit) -> Driver.adversary_post d commit) !old_commits;
  Driver.run d 10;
  let punished =
    List.length
      (List.filter
         (fun (_, v, _) ->
           Driver.saw_event v (function Party.Punished _ -> true | _ -> false))
         !old_commits)
  in
  { old_commits_posted = List.length !old_commits;
    punished_within_window = punished;
    adversary_capacity_lost = punished * cfg.channel_capacity / 2;
    htlcs_claimed = 0 }
