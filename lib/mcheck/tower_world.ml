(** Watchtower-handoff world: Daric's constant-size tower state vs
    Lightning's per-state secrets, under adversarial notification
    withholding.

    After every channel update the channel notifies its watchtower
    over a *best-effort* link (a {!Daric_chain.Network} the adversary
    may {!Daric_chain.Network.drop} from — unlike the guaranteed
    party-to-party F_GDC links). The adversary may withhold any
    *intermediate* notification; the final handoff is assumed
    delivered (a tower that never heard of the channel's latest state
    at all cannot be expected to defend it — this is the documented
    boundary of the claim). Then a corrupted party publishes any
    revoked state, both parties stay offline, and only the tower can
    react before the cheater's CSV window opens.

    - Daric: the tower keeps one revocation — the latest delivered.
      Its nLockTime covers every earlier state (ANYPREVOUT rebinding),
      so dropping intermediate notifications changes nothing: the
      sweep is clean. This is the Table-1 O(1) tower-storage claim,
      mechanized.
    - Lightning: the tower needs the per-state secret of the exact
      revoked commitment. Withholding the intermediate secret and
      publishing that state leaves the tower helpless — the cheater
      sweeps the revoked to_local after the CSV delay. The checker
      reports this as a punish-or-refund violation; {!Matrix} files it
      as an *expected finding* for Lightning, not an error. *)

module Tx = Daric_tx.Tx
module Sighash = Daric_tx.Sighash
module Ledger = Daric_chain.Ledger
module Network = Daric_chain.Network
module Keys = Daric_core.Keys
module Schnorr = Daric_crypto.Schnorr
module Dm = Daric_staticcheck.Daricmodel
module Ln = Daric_schemes.Lightning

type variant = Daric | Lightning

let variant_name = function Daric -> "daric" | Lightning -> "lightning"

type cfg = {
  variant : variant;
  n_states : int;
  rel_lock : int;
  delta : int;
  horizon : int;
}

let default_cfg =
  { variant = Daric; n_states = 3; rel_lock = 4; delta = 2; horizon = 14 }

let deadline (c : cfg) : int = c.rel_lock + c.delta + 3

(* Protocol-specific hooks: how the cheater publishes a stale state,
   how the tower punishes one it knows about, and how the cheater
   sweeps an unpunished one. *)
type kit = {
  k_stale : int;  (** stale states, indexes [0 .. k_stale-1] *)
  k_cash : int;
  k_victim_pkh : string;
  k_commit : int -> Tx.t;  (** the cheater's state-[j] commit *)
  k_punish : known:int list -> int -> Tx.t -> Tx.t option;
      (** tower reaction to published state [j], given the delivered
          notification indexes *)
  k_sweep : int -> Tx.t -> Tx.t;  (** cheater's post-CSV sweep *)
}

type world = {
  cfg : cfg;
  mutable ledger : Ledger.t;
  mutable net : int Network.t;  (** notifications carry a state index *)
  mutable kit : kit;
  mutable tower_known : int list;
  mutable published : (int * string) option;  (** state, commit txid *)
  mutable publish_round : int;
  mutable punish_posted : bool;
  mutable sweep_posted : bool;
  mutable history : int list;  (** applied action codes, newest first *)
}

type action =
  | Tick
  | Withhold of int  (** drop the in-flight notification for state [j] *)
  | Cheat of int  (** publish the revoked state-[j] commit *)

let action_to_string = function
  | Tick -> "tick"
  | Withhold j -> Printf.sprintf "withhold(%d)" j
  | Cheat j -> Printf.sprintf "cheat(%d)" j

(* ------------------------------------------------------------------ *)
(* Variant kits.                                                       *)

let pkh (pk : Schnorr.public_key) : string =
  Daric_crypto.Hash.hash160 (Keys.enc pk)

(* Daric: the channel is the Daricmodel closure, the cheater is Bob,
   the victim Alice. The tower holds revocations for the delivered
   indexes and punishes with the highest one covering the published
   state. The cheater's sweep is the rebound stale split. *)
let daric_kit (cfg : cfg) (ledger : Ledger.t) : kit =
  let m = Dm.build ~n_states:cfg.n_states ~rel_lock:cfg.rel_lock () in
  let fund = List.find (fun (e : Dm.entry) -> e.Dm.kind = Dm.Fund) m.Dm.entries in
  Ledger.record ledger fund.Dm.tx;
  let entry k =
    List.find (fun (e : Dm.entry) -> e.Dm.kind = k) m.Dm.entries
  in
  let commit j = entry (Dm.Commit (Keys.Bob, j)) in
  { k_stale = cfg.n_states - 1;
    k_cash = m.Dm.cash;
    k_victim_pkh = pkh (Keys.pub m.Dm.keys_a).Keys.main_pk;
    k_commit = (fun j -> (commit j).Dm.tx);
    k_punish =
      (fun ~known j _published ->
        (* Constant tower state: only the highest delivered revocation
           is retained; it covers state j iff its index >= j. *)
        match List.filter (fun r -> r >= j) known with
        | [] -> None
        | covering ->
            let r = List.fold_left max 0 covering in
            Some (Closure_world.rebind_revoke (entry (Dm.Revoke r)) (commit j)));
    k_sweep =
      (fun j published ->
        ignore published;
        Closure_world.rebind_split (entry (Dm.Split j)) (commit j)) }

(* Lightning: a real penalty channel; updates shift value from A to B,
   so every old state favors the cheater A. The tower guards victim B
   and needs the exact per-state secret; the cheater's sweep rebuilds
   the *historical* to_local script (the current one no longer
   matches an old commit). *)
let lightning_kit (cfg : cfg) (ledger : Ledger.t) : kit =
  let rng = Daric_util.Rng.create ~seed:23 in
  let bal_a = 600_000 and bal_b = 400_000 in
  let ch = Ln.create ~rel_lock:cfg.rel_lock ~ledger ~rng ~bal_a ~bal_b () in
  let stale = cfg.n_states - 1 in
  let old_commits =
    List.init stale (fun k ->
        let shift = 100_000 * (k + 1) in
        let old_a, _old_b =
          Ln.update ch ~bal_a:(bal_a - shift) ~bal_b:(bal_b + shift)
        in
        old_a)
  in
  let secret_of j =
    (List.find (fun (r : Ln.revocation) -> r.Ln.index = j)
       ch.Ln.b.Ln.received_secrets)
      .Ln.secret
  in
  { k_stale = stale;
    k_cash = ch.Ln.cash;
    k_victim_pkh = pkh ch.Ln.b.Ln.keys.Ln.main.Keys.pk;
    k_commit = (fun j -> List.nth old_commits j);
    k_punish =
      (fun ~known j published ->
        if List.mem j known then
          Ln.penalty ch ~victim:`B ~published ~revoked_index:j
        else None);
    k_sweep =
      (fun j published ->
        (* The revoked commit's to_local script carries that state's
           revocation key, recoverable from the revealed secret. *)
        let script =
          Ln.to_local_script
            ~revocation_pk:(Schnorr.public_key_of_secret (secret_of j))
            ~delayed_pk:ch.Ln.a.Ln.keys.Ln.delayed.Keys.pk
            ~rel_lock:cfg.rel_lock
        in
        let v = (List.nth published.Tx.outputs 0).Tx.value in
        let body =
          Tx.make
            ~inputs:[ Tx.input_of_outpoint (Tx.outpoint_of published 0) ]
            ~outputs:
              [ { Tx.value = v;
                  spk = Tx.P2wpkh (pkh ch.Ln.a.Ln.keys.Ln.main.Keys.pk) } ]
            ()
        in
        let sg =
          Sighash.sign ch.Ln.a.Ln.keys.Ln.delayed.Keys.sk All body
            ~input_index:0
        in
        Tx.with_witnesses body [ [ Tx.Data sg; Tx.Data ""; Tx.Wscript script ] ]) }

(* ------------------------------------------------------------------ *)
(* World.                                                              *)

let round (w : world) : int = Ledger.height w.ledger

let reset (w : world) : unit =
  let ledger = Ledger.create ~delta:w.cfg.delta () in
  let kit =
    match w.cfg.variant with
    | Daric -> daric_kit w.cfg ledger
    | Lightning -> lightning_kit w.cfg ledger
  in
  let net = Network.create () in
  (* Every update's tower notification is in flight at round 0; the
     adversary chooses which intermediate ones reach the tower. *)
  for j = 0 to kit.k_stale - 1 do
    Network.send net ~round:0 ~sender:"channel" ~recipient:"tower" j
  done;
  w.ledger <- ledger;
  w.net <- net;
  w.kit <- kit;
  w.tower_known <- [];
  w.published <- None;
  w.publish_round <- -1;
  w.punish_posted <- false;
  w.sweep_posted <- false;
  w.history <- []

let create (cfg : cfg) : world =
  let w =
    { cfg;
      ledger = Ledger.create ~delta:cfg.delta ();
      net = Network.create ();
      kit =
        { k_stale = 0; k_cash = 0; k_victim_pkh = ""; k_commit = (fun _ -> Tx.empty);
          k_punish = (fun ~known:_ _ _ -> None); k_sweep = (fun _ tx -> tx) };
      tower_known = []; published = None; publish_round = -1;
      punish_posted = false; sweep_posted = false; history = [] }
  in
  reset w;
  w

let resolved (w : world) : bool =
  match w.published with
  | None -> false
  | Some (_, txid) -> (
      match Ledger.recorded_round_of w.ledger txid with
      | None -> false
      | Some _ ->
          Ledger.spender_of w.ledger { Tx.txid; vout = 0 } <> None)

let victim_payout (w : world) : int =
  Ledger.fold_utxos w.ledger
    (fun _op (u : Ledger.utxo) acc ->
      match u.Ledger.output.Tx.spk with
      | Tx.P2wpkh h when h = w.kit.k_victim_pkh ->
          acc + u.Ledger.output.Tx.value
      | _ -> acc)
    0

(* ------------------------------------------------------------------ *)
(* Step relation.                                                      *)

let actions (w : world) : action list =
  let r = round w in
  if r >= w.cfg.horizon || (resolved w && Ledger.pending_due w.ledger = [])
  then []
  else
    let in_flight j =
      List.exists
        (fun (_, (e : int Network.envelope)) -> e.Network.payload = j)
        (Network.in_flight w.net)
    in
    let withholds =
      (* Intermediate notifications only: the final handoff is assumed
         delivered. *)
      List.filter_map
        (fun j -> if in_flight j then Some (Withhold j) else None)
        (List.init (max 0 (w.kit.k_stale - 1)) (fun j -> j))
    in
    let cheats =
      if w.published = None && r <= w.cfg.horizon - deadline w.cfg then
        List.init w.kit.k_stale (fun j -> Cheat j)
      else []
    in
    (Tick :: withholds) @ cheats

let tower_and_cheater_react (w : world) : unit =
  List.iter
    (fun (e : int Network.envelope) ->
      if not (List.mem e.Network.payload w.tower_known) then
        w.tower_known <- e.Network.payload :: w.tower_known)
    (Network.deliver w.net ~round:(round w) ~recipient:"tower");
  match w.published with
  | None -> ()
  | Some (j, txid) -> (
      match Ledger.recorded_round_of w.ledger txid with
      | None -> ()
      | Some rc when Ledger.is_unspent w.ledger { Tx.txid; vout = 0 } ->
          let published = w.kit.k_commit j in
          (* Tower first: punish as soon as the stale commit lands. *)
          if not w.punish_posted then begin
            match w.kit.k_punish ~known:w.tower_known j published with
            | Some p when Ledger.validate w.ledger p = Ok () ->
                Ledger.post w.ledger p ~delay:0;
                w.punish_posted <- true
            | _ -> ()
          end;
          (* Cheater: sweep once the CSV window opens. *)
          if (not w.sweep_posted) && round w - rc >= w.cfg.rel_lock then begin
            let s = w.kit.k_sweep j published in
            match Ledger.validate w.ledger s with
            | Ok () ->
                Ledger.post w.ledger s ~delay:0;
                w.sweep_posted <- true
            | Error _ -> ()
          end
      | Some _ -> ())

let apply_raw (w : world) (a : action) : unit =
  match a with
  | Tick ->
      ignore (Ledger.tick w.ledger);
      tower_and_cheater_react w
  | Withhold j ->
      ignore
        (Network.drop w.net (fun (e : int Network.envelope) ->
             e.Network.payload = j))
  | Cheat j ->
      let tx = w.kit.k_commit j in
      Ledger.post w.ledger tx ~delay:0;
      w.published <- Some (j, Tx.txid tx);
      w.publish_round <- round w

let encode (a : action) : int =
  match a with Tick -> 0 | Withhold j -> 100 + j | Cheat j -> 200 + j

let decode (c : int) : action =
  if c >= 200 then Cheat (c - 200)
  else if c >= 100 then Withhold (c - 100)
  else Tick

let apply (w : world) (a : action) : unit =
  w.history <- encode a :: w.history;
  apply_raw w a

(* ------------------------------------------------------------------ *)
(* Invariants, fingerprint, snapshot.                                  *)

let check (w : world) : Mcheck.violation list =
  match w.published with
  | None -> []
  | Some (j, _) ->
      if resolved w then begin
        let pay = victim_payout w in
        if pay < w.kit.k_cash then
          [ { Mcheck.invariant = Mcheck.punish_or_refund;
              detail =
                Printf.sprintf
                  "revoked state %d resolved with the victim holding %d of \
                   %d (tower knew [%s])"
                  j pay w.kit.k_cash
                  (String.concat ","
                     (List.rev_map string_of_int w.tower_known)) } ]
        else []
      end
      else if round w > w.publish_round + deadline w.cfg then
        [ { Mcheck.invariant = Mcheck.bounded_closure;
            detail =
              Printf.sprintf
                "revoked state %d published at round %d, unresolved at %d" j
                w.publish_round (round w) } ]
      else []

let fingerprint (w : world) : string =
  let b = Buffer.create 256 in
  let int i =
    Buffer.add_string b (string_of_int i);
    Buffer.add_char b ';'
  in
  let str s =
    Buffer.add_string b s;
    Buffer.add_char b ';'
  in
  str (variant_name w.cfg.variant);
  int (round w);
  int (match w.published with None -> -1 | Some (j, _) -> j);
  int w.publish_round;
  List.iter
    (fun fl -> Buffer.add_char b (if fl then '1' else '0'))
    [ w.punish_posted; w.sweep_posted ];
  List.iter int (List.sort compare w.tower_known);
  Buffer.add_char b '|';
  List.iter
    (fun (_, (e : int Network.envelope)) -> int e.Network.payload)
    (Network.in_flight w.net);
  Buffer.add_char b '|';
  List.iter
    (fun (r, tx) ->
      int r;
      str (Tx.txid tx))
    (Ledger.accepted w.ledger);
  List.iter
    (fun (due, txs) ->
      int due;
      List.iter (fun tx -> str (Tx.txid tx)) txs)
    (Ledger.pending_due w.ledger);
  Daric_crypto.Hash.hash256 (Buffer.contents b)

type snap = int list

let snapshot (w : world) : snap = w.history

let restore (w : world) (s : snap) : unit =
  reset w;
  List.iter (fun c -> apply_raw w (decode c)) (List.rev s);
  w.history <- s

(* ------------------------------------------------------------------ *)

let tower_known (w : world) : int list = List.sort compare w.tower_known

let model ?(cfg = default_cfg) () :
    (module Mcheck.MODEL with type world = world) =
  (module struct
    let name = "tower/" ^ variant_name cfg.variant

    type nonrec world = world
    type nonrec action = action
    type nonrec snap = snap

    let action_to_string = action_to_string
    let init () = create cfg
    let actions = actions
    let apply = apply
    let fingerprint = fingerprint
    let check = check
    let snapshot = snapshot
    let restore = restore
  end)
