(** Simulation driver: wires parties, the authenticated network and the
    ledger into the synchronous round structure of Appendix C.

    Per round: the ledger processes due postings; every honest party
    handles its delivered messages; every honest party and every
    watchtower runs its end-of-round (Punish) logic. Corrupting a party
    freezes its honest logic; the test then acts as the adversary,
    using the party's recorded data and keys directly. *)

module Ledger = Daric_chain.Ledger
module Network = Daric_chain.Network
module Tx = Daric_tx.Tx

type t = {
  ledger : Ledger.t;
  net : Wire.msg Network.t;
  rng : Daric_util.Rng.t;
  mutable parties : (string * Party.t) list;
  corrupted : (string, unit) Hashtbl.t;
  mutable post_delay : int;  (** adversary-chosen ledger delay for posts *)
  mutable watchtowers : Watchtower.t list;
}

let create ?ledger ?net_log_cap ?(delta = 1) ?(seed = 0xD0C5) () : t =
  let ledger =
    match ledger with Some l -> l | None -> Ledger.create ~delta ()
  in
  { ledger;
    net = Network.create ?log_cap:net_log_cap ();
    rng = Daric_util.Rng.create ~seed;
    parties = [];
    corrupted = Hashtbl.create 4;
    post_delay = Ledger.delta ledger;
    watchtowers = [] }

let ledger (t : t) : Ledger.t = t.ledger
let round (t : t) : int = Ledger.height t.ledger

let add_party (t : t) (p : Party.t) : unit =
  t.parties <- t.parties @ [ (p.Party.pid, p) ]

let add_watchtower (t : t) (w : Watchtower.t) : unit =
  t.watchtowers <- t.watchtowers @ [ w ]

let corrupt (t : t) (pid : string) : unit = Hashtbl.replace t.corrupted pid ()

let is_corrupted (t : t) (pid : string) : bool = Hashtbl.mem t.corrupted pid

(** Per-round capabilities for party [pid]. *)
let ctx (t : t) (pid : string) : Party.ctx =
  { Party.round = round t;
    ledger = t.ledger;
    send =
      (fun ~recipient msg ->
        Network.send t.net ~round:(round t) ~sender:pid ~recipient msg);
    post = (fun tx -> Ledger.post t.ledger tx ~delay:t.post_delay) }

(** Post a transaction as the adversary (with a chosen delay). *)
let adversary_post ?(delay = 0) (t : t) (tx : Tx.t) : unit =
  Ledger.post t.ledger tx ~delay

(** Advance one round. *)
let step (t : t) : unit =
  ignore (Ledger.tick t.ledger);
  let r = round t in
  List.iter
    (fun (pid, p) ->
      let delivered = Network.deliver t.net ~round:r ~recipient:pid in
      if not (is_corrupted t pid) then
        List.iter (fun env -> Party.handle_msg p (ctx t pid) env) delivered)
    t.parties;
  List.iter
    (fun (pid, p) ->
      if not (is_corrupted t pid) then Party.end_of_round p (ctx t pid))
    t.parties;
  List.iter
    (fun w ->
      Watchtower.end_of_round w ~round:r ~ledger:t.ledger
        ~post:(fun tx -> Ledger.post t.ledger tx ~delay:t.post_delay))
    t.watchtowers

let run (t : t) (rounds : int) : unit =
  for _ = 1 to rounds do
    step t
  done

(* ------------------------------------------------------------------ *)
(* Scenario helpers.                                                   *)

let mint_to_key (t : t) ~(value : int)
    ~(pk : Daric_crypto.Schnorr.public_key) : Tx.outpoint =
  Ledger.mint t.ledger ~value
    ~spk:
      (Tx.P2wpkh
         (Daric_crypto.Hash.hash160 (Daric_crypto.Schnorr.encode_public_key pk)))

(** Start channel creation between two registered parties: mint each
    side's funding source, then INTRO both in the same round. The
    create phase completes during subsequent [step]s (allow
    ~4 + 2*delta rounds). *)
let open_channel (t : t) ~(id : string) ~(alice : Party.t) ~(bob : Party.t)
    ~(bal_a : int) ~(bal_b : int) ?(rel_lock = 3) ?(s0 = 500_000_000) () : unit
    =
  let cfg_a =
    { Party.id; role = Keys.Alice; peer = bob.Party.pid; bal_a; bal_b;
      rel_lock; s0 }
  in
  let cfg_b = { cfg_a with Party.role = Keys.Bob; peer = alice.Party.pid } in
  let keys_a = Keys.generate t.rng in
  let keys_b = Keys.generate t.rng in
  let tid_a = mint_to_key t ~value:bal_a ~pk:keys_a.Keys.main.pk in
  let tid_b = mint_to_key t ~value:bal_b ~pk:keys_b.Keys.main.pk in
  Party.intro alice (ctx t alice.Party.pid) ~keys:keys_a ~cfg:cfg_a ~tid:tid_a ();
  Party.intro bob (ctx t bob.Party.pid) ~keys:keys_b ~cfg:cfg_b ~tid:tid_b ()

(** Did this party report the given event (at any round)? *)
let saw_event (p : Party.t) (pred : Party.event -> bool) : bool =
  List.exists (fun (_, ev) -> pred ev) (Party.events p)

let channel_operational (p : Party.t) ~(id : string) : bool =
  match Party.find_chan p id with
  | Some c -> c.Party.phase = Party.Operational
  | None -> false

(** Run until both parties have the channel operational (or give up
    after [max_rounds]). *)
let run_until_operational ?(max_rounds = 30) (t : t) ~(id : string)
    ~(alice : Party.t) ~(bob : Party.t) : bool =
  let rec go n =
    if n = 0 then false
    else if channel_operational alice ~id && channel_operational bob ~id then
      true
    else begin
      step t;
      go (n - 1)
    end
  in
  go max_rounds

(** Perform a complete update to [theta], driving rounds until both
    sides report state [expected_sn]; false on timeout. *)
let update_channel ?(max_rounds = 20) (t : t) ~(id : string)
    ~(initiator : Party.t) ~(responder : Party.t) ~(theta : Tx.output list) :
    bool =
  Party.request_update initiator (ctx t initiator.Party.pid) ~id ~theta ();
  let target c = (c : Party.chan).Party.phase = Party.Operational in
  let done_ () =
    match (Party.find_chan initiator id, Party.find_chan responder id) with
    | Some ci, Some cr ->
        target ci && target cr && ci.Party.sn = cr.Party.sn
        && ci.Party.pending = None && cr.Party.pending = None
        && ci.Party.sn > 0
        && Party.outputs_equal ci.Party.st theta
    | _ -> false
  in
  let rec go n =
    if n = 0 then false
    else if done_ () then true
    else begin
      step t;
      go (n - 1)
    end
  in
  go max_rounds

(** Protocol bytes exchanged so far (communication cost, using the
    canonical wire encoding), summed over the retained traffic log. *)
let bytes_sent (t : t) : int =
  List.fold_left
    (fun acc (_, env) -> acc + Wire.size env.Network.payload)
    0 (Network.log t.net)

(** Number of protocol messages exchanged so far. *)
let messages_sent (t : t) : int = Network.total_sent t.net
