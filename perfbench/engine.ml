(* One Daric channel between two in-process parties on a shared ledger,
   driven round by round in one of two ways:

   - [Driven]: the library's own round loop ({!Daric_core.Driver}),
     exactly as [Daric_scheme.Scheme] drives it: Driver.open_channel,
     Driver.run_until_operational, Driver.update_channel, Driver.step.
     The end-to-end figures are measured this way.
   - [Traced]: the benchmark runs the same round itself from public
     calls in Driver.step's order (Ledger.tick, Network.deliver,
     Party.handle_msg, Party.end_of_round), timing each call. From the
     same inputs it must reach exactly the state [Driven] reaches.

   Channel parameters mirror the Daric scheme wrapper: T = 3, a network
   log capped at 64 entries, driver seed = party seed + 41. *)

module Ledger = Daric_chain.Ledger
module Network = Daric_chain.Network
module Tx = Daric_tx.Tx
module Party = Daric_core.Party
module Driver = Daric_core.Driver
module Keys = Daric_core.Keys
module Wire = Daric_core.Wire
module Txs = Daric_core.Txs
module Schnorr = Daric_crypto.Schnorr

(* The generated inputs of one channel. *)
type spec = { id : string; party_seed : int; bal_a : int; bal_b : int }

let rel_lock = 3
let s0 = 500_000_000
let net_log_cap = 64

type loop =
  | Driven of Driver.t
  | Traced of { net : Wire.msg Network.t; mutable frozen : bool }

type chan = {
  id : string;
  ledger : Ledger.t;
  loop : loop;
  alice : Party.t;
  bob : Party.t;
  pk_a : Schnorr.public_key;
  pk_b : Schnorr.public_key;
  old_commit : Tx.t;  (** Bob's state-0 commit, kept to replay later *)
}

(* ---- the traced round (Driver.step, call by call) ------------------ *)

let traced_ctx (ledger : Ledger.t) (net : Wire.msg Network.t)
    (p : Party.t) : Party.ctx =
  let pid = p.Party.pid in
  { Party.round = Ledger.height ledger;
    ledger;
    send =
      (fun ~recipient msg ->
        Network.send net ~round:(Ledger.height ledger) ~sender:pid ~recipient
          msg);
    post = (fun tx -> Ledger.post ledger tx ~delay:(Ledger.delta ledger)) }

let traced_step (ledger : Ledger.t) (net : Wire.msg Network.t) ~(frozen : bool)
    (parties : Party.t list) : unit =
  let evs = Trace.span Trace.tick (fun () -> Ledger.tick ledger) in
  Trace.count_due (List.length evs);
  let r = Ledger.height ledger in
  List.iter
    (fun (p : Party.t) ->
      let delivered =
        Trace.span Trace.deliver (fun () ->
            Network.deliver net ~round:r ~recipient:p.Party.pid)
      in
      if not frozen then
        List.iter
          (fun (env : Wire.msg Network.envelope) ->
            let ctx = traced_ctx ledger net p in
            let slot = Trace.handle_slot env.Network.payload in
            Trace.count_msg env.Network.payload;
            Trace.span slot (fun () -> Party.handle_msg p ctx env))
          delivered)
    parties;
  if not frozen then
    List.iter
      (fun p ->
        let ctx = traced_ctx ledger net p in
        Trace.span Trace.end_of_round (fun () -> Party.end_of_round p ctx))
      parties

let step (c : chan) : unit =
  match c.loop with
  | Driven d -> Driver.step d
  | Traced t -> traced_step c.ledger t.net ~frozen:t.frozen [ c.alice; c.bob ]

let request_ctx (c : chan) (p : Party.t) : Party.ctx =
  match c.loop with
  | Driven d -> Driver.ctx d p.Party.pid
  | Traced t -> traced_ctx c.ledger t.net p

(* Step until [done_ ()] or [max] rounds; the final verdict. *)
let run_until (c : chan) ~(max : int) (done_ : unit -> bool) : bool =
  let n = ref 0 in
  while (not (done_ ())) && !n < max do
    step c;
    incr n
  done;
  done_ ()

(* ---- lifecycle ------------------------------------------------------ *)

let operational (p : Party.t) (id : string) = Driver.channel_operational p ~id

let open_channel ~(traced : bool) (ledger : Ledger.t) (s : spec) : chan option =
  let alice = Party.create ~pid:("alice:" ^ s.id) ~seed:s.party_seed () in
  let bob = Party.create ~pid:("bob:" ^ s.id) ~seed:(s.party_seed + 1) () in
  let seed = s.party_seed + 41 in
  let loop, opened =
    if not traced then begin
      let d = Driver.create ~ledger ~net_log_cap ~seed () in
      Driver.add_party d alice;
      Driver.add_party d bob;
      Driver.open_channel d ~id:s.id ~alice ~bob ~bal_a:s.bal_a ~bal_b:s.bal_b
        ~rel_lock ~s0 ();
      (Driven d, fun () -> Driver.run_until_operational d ~id:s.id ~alice ~bob)
    end
    else begin
      let net = Network.create ~log_cap:net_log_cap () in
      let rng = Daric_util.Rng.create ~seed in
      let cfg_a =
        { Party.id = s.id; role = Keys.Alice; peer = bob.Party.pid;
          bal_a = s.bal_a; bal_b = s.bal_b; rel_lock; s0 }
      in
      let cfg_b = { cfg_a with Party.role = Keys.Bob; peer = alice.Party.pid } in
      let keys_a = Keys.generate rng in
      let keys_b = Keys.generate rng in
      let mint value (k : Keys.t) =
        Ledger.mint ledger ~value
          ~spk:
            (Tx.P2wpkh
               (Daric_crypto.Hash.hash160
                  (Schnorr.encode_public_key k.Keys.main.Keys.pk)))
      in
      let tid_a = mint s.bal_a keys_a in
      let tid_b = mint s.bal_b keys_b in
      Trace.span Trace.request (fun () ->
          Party.intro alice (traced_ctx ledger net alice) ~keys:keys_a
            ~cfg:cfg_a ~tid:tid_a ();
          Party.intro bob (traced_ctx ledger net bob) ~keys:keys_b ~cfg:cfg_b
            ~tid:tid_b ());
      let loop = Traced { net; frozen = false } in
      let opened () =
        let rec go n =
          if n = 0 then false
          else if operational alice s.id && operational bob s.id then true
          else begin
            traced_step ledger net ~frozen:false [ alice; bob ];
            go (n - 1)
          end
        in
        go 30
      in
      (loop, opened)
    end
  in
  if not (opened ()) then None
  else
    match (Party.chan_exn bob s.id).Party.commit_mine with
    | None -> None
    | Some old_commit ->
        let pk_a, pk_b = Party.main_pks (Party.chan_exn alice s.id) in
        Some { id = s.id; ledger; loop; alice; bob; pk_a; pk_b; old_commit }

(* Driver.update_channel's completion test. *)
let update_done (c : chan) (theta : Tx.output list) () : bool =
  match (Party.find_chan c.alice c.id, Party.find_chan c.bob c.id) with
  | Some ci, Some cr ->
      let ok (x : Party.chan) = x.Party.phase = Party.Operational in
      ok ci && ok cr && ci.Party.sn = cr.Party.sn && ci.Party.pending = None
      && cr.Party.pending = None && ci.Party.sn > 0
      && Party.outputs_equal ci.Party.st theta
  | _ -> false

(* One off-chain update to the given balances (Scheme.update). *)
let update (c : chan) ~(bal_a : int) ~(bal_b : int) : bool =
  let oa = Party.ops c.alice and ob = Party.ops c.bob in
  let signs0 = oa.Party.signs + ob.Party.signs in
  let verifies0 = oa.Party.verifies + ob.Party.verifies in
  let theta =
    Trace.span Trace.request (fun () ->
        Txs.balance_state ~pk_a:c.pk_a ~pk_b:c.pk_b ~bal_a ~bal_b)
  in
  let ok =
    match c.loop with
    | Driven d ->
        Driver.update_channel d ~id:c.id ~initiator:c.alice ~responder:c.bob
          ~theta
    | Traced _ ->
        Trace.span Trace.request (fun () ->
            Party.request_update c.alice (request_ctx c c.alice) ~id:c.id
              ~theta ());
        run_until c ~max:20 (update_done c theta)
  in
  Trace.count_update
    ~signs_delta:(oa.Party.signs + ob.Party.signs - signs0)
    ~verifies_delta:(oa.Party.verifies + ob.Party.verifies - verifies0);
  ok

(* Collaborative close at the current state, until Alice sees it
   confirmed (Scheme.collaborative_close). *)
let close (c : chan) : bool =
  Trace.span Trace.request (fun () ->
      Party.request_close c.alice (request_ctx c c.alice) ~id:c.id);
  run_until c ~max:20 (fun () ->
      Driver.saw_event c.alice (function Party.Closed _ -> true | _ -> false))

(* Freeze both parties and replay Bob's revoked state-0 commit with no
   delay: only an external tower can react (publish_revoked). *)
let publish_revoked (c : chan) : unit =
  match c.loop with
  | Driven d ->
      Driver.corrupt d c.alice.Party.pid;
      Driver.corrupt d c.bob.Party.pid;
      Driver.adversary_post d c.old_commit
  | Traced t ->
      t.frozen <- true;
      Ledger.post c.ledger c.old_commit ~delay:0

let sn (p : Party.t) (id : string) : int =
  match Party.find_chan p id with Some x -> x.Party.sn | None -> -1

(* The per-party facts the traced/untraced differential compares. *)
let fingerprint (c : chan) : string =
  let party (p : Party.t) =
    let o = Party.ops p in
    Printf.sprintf "%d/%d/%d/%d" (sn p c.id) o.Party.signs o.Party.verifies
      o.Party.exps
  in
  Printf.sprintf "%s:%s:%s" c.id (party c.alice) (party c.bob)
