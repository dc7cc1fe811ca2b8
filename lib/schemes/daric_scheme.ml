(** Daric as a {!Scheme_intf.SCHEME} instance.

    Unlike the baseline models in this directory, Daric is implemented
    as a full two-party protocol (lib/core): the wrapper drives the
    real {!Driver} round loop — INTRO/CREATE handshake, interactive
    updates, collaborative close, and the Punish daemon reacting to a
    replayed old commit — and measures storage with the byte-accurate
    {!Storage}/{!Watchtower} accounting.

    The channel state is transparent ([Scheme.t = state]) so the scale
    harness can drive many instances on one shared environment: hand
    each channel's record to an external watchtower, replay revoked
    commits with both parties corrupted, and let the tower (rather
    than a party's own Punish daemon) react. *)

module Tx = Daric_tx.Tx
module Ledger = Daric_chain.Ledger
module Party = Daric_core.Party
module Driver = Daric_core.Driver
module Storage = Daric_core.Storage
module Watchtower = Daric_core.Watchtower
module I = Scheme_intf

type state = {
  chan_id : string;
  env : I.env;
  d : Driver.t;
  alice : Party.t;
  bob : Party.t;
  pk_a : Daric_crypto.Schnorr.public_key;
  pk_b : Daric_crypto.Schnorr.public_key;
  old_commit : Tx.t;  (** Bob's state-0 commit, snapshotted at open *)
}

module Scheme : Scheme_intf.SCHEME with type t = state = struct
  let name = "Daric"
  let has_watchtower = true

  type t = state

  let open_channel (env : I.env) (cfg : I.config) =
    (* Party and watchtower state is indexed by channel id: claim it on
       the env so a second instance opened with the same config derives
       a distinct id instead of colliding in the shared indexes. *)
    let id = I.claim_chan_id env cfg.chan_id in
    (* The traffic log is capped so thousands of channels on one shared
       environment keep flat memory; byte/message totals are separate
       counters and unaffected. *)
    let d =
      Driver.create ~ledger:env.ledger ~net_log_cap:64
        ~seed:(cfg.party_seed + 41) ()
    in
    let alice = Party.create ~pid:("alice:" ^ id) ~seed:cfg.party_seed () in
    let bob = Party.create ~pid:("bob:" ^ id) ~seed:(cfg.party_seed + 1) () in
    Driver.add_party d alice;
    Driver.add_party d bob;
    Driver.open_channel d ~id ~alice ~bob ~bal_a:cfg.bal_a ~bal_b:cfg.bal_b
      ~rel_lock:cfg.rel_lock ();
    if not (Driver.run_until_operational d ~id ~alice ~bob) then
      I.fail ~scheme:name ~stage:"open_channel" "channel failed to open"
    else
      let c = Party.chan_exn alice id in
      let pk_a, pk_b = Party.main_pks c in
      match (Party.chan_exn bob id).Party.commit_mine with
      | None ->
          I.fail ~scheme:name ~stage:"open_channel" "no state-0 commit"
      | Some old_commit ->
          Ok { chan_id = id; env; d; alice; bob; pk_a; pk_b; old_commit }

  let update s ~bal_a ~bal_b =
    let theta =
      Daric_core.Txs.balance_state ~pk_a:s.pk_a ~pk_b:s.pk_b ~bal_a ~bal_b
    in
    if
      Driver.update_channel s.d ~id:s.chan_id ~initiator:s.alice
        ~responder:s.bob ~theta
    then Ok ()
    else I.fail ~scheme:name ~stage:"update" "update rejected or timed out"

  let sn s = (Party.chan_exn s.alice s.chan_id).Party.sn
  let funding s = Party.funding_outpoint (Party.chan_exn s.alice s.chan_id)
  let party_bytes s = Storage.party_bytes s.alice ~id:s.chan_id

  let watchtower_bytes s =
    match Watchtower.record_for s.alice ~id:s.chan_id with
    | Some r -> Some (Watchtower.record_bytes r)
    | None -> Some 0

  let ops s =
    let o = Party.ops s.alice in
    { I.signs = o.Party.signs; verifies = o.Party.verifies; exps = o.Party.exps }

  (* Daric's key inventory is state-independent (Table 1: O(1) keys):
     four key pairs per party cover every commit/split/revocation
     script the channel can ever produce. *)
  let known_pubkeys s =
    let c = Party.chan_exn s.alice s.chan_id in
    let ka, kb = Party.keys_ab c in
    let bundle (k : Daric_core.Keys.pub) =
      List.map Daric_core.Keys.enc
        [ k.Daric_core.Keys.main_pk; k.Daric_core.Keys.sp_pk;
          k.Daric_core.Keys.rv_pk; k.Daric_core.Keys.rv'_pk ]
    in
    bundle ka @ bundle kb

  let saw s ev = Driver.saw_event s.alice ev

  (* Step the driver until [done_ ()] or [max] rounds elapse. *)
  let run_until s ~max done_ =
    let n = ref 0 in
    while (not (done_ ())) && !n < max do
      Driver.step s.d;
      incr n
    done;
    done_ ()

  let rel_lock s = (Party.chan_exn s.alice s.chan_id).Party.cfg.Party.rel_lock

  let collaborative_close s =
    let h0 = Ledger.height s.env.ledger in
    Party.request_close s.alice (Driver.ctx s.d s.alice.Party.pid)
      ~id:s.chan_id;
    let closed () = saw s (function Party.Closed _ -> true | _ -> false) in
    if run_until s ~max:20 closed then
      I.outcome s.env ~h0 ~resolved:true [ I.Settled ]
    else
      I.fail ~scheme:name ~stage:"collaborative_close"
        "close did not confirm in time"

  (* Corrupted Bob replays his state-0 commit; Alice's Punish daemon
     reacts with the floating revocation transaction. *)
  let dishonest_close s =
    if sn s = 0 then I.no_revoked_state ~scheme:name
    else begin
      let h0 = Ledger.height s.env.ledger in
      Driver.corrupt s.d s.bob.Party.pid;
      Driver.adversary_post s.d s.old_commit;
      let punished () =
        saw s (function Party.Punished _ -> true | _ -> false)
      in
      let ok = run_until s ~max:((4 * rel_lock s) + 12) punished in
      I.outcome s.env ~h0 ~punished:ok ~resolved:ok
        [ I.Old_state_published 0;
          (if ok then I.Punished else I.Cheater_escaped) ]
    end

  (* Alice posts her newest enforceable commit against an unresponsive
     Bob; the Punish daemon schedules the split after T rounds. *)
  let force_close s =
    let h0 = Ledger.height s.env.ledger in
    Driver.corrupt s.d s.bob.Party.pid;
    Party.force_close s.alice
      (Driver.ctx s.d s.alice.Party.pid)
      (Party.chan_exn s.alice s.chan_id);
    let closed () = saw s (function Party.Closed _ -> true | _ -> false) in
    let ok = run_until s ~max:((4 * rel_lock s) + 12) closed in
    if ok then
      I.outcome s.env ~h0 ~resolved:true [ I.Latest_published; I.Settled ]
    else
      I.fail ~scheme:name ~stage:"force_close" "split did not confirm in time"
end

(* ------------------------------------------------------------------ *)
(* Scale-harness access to the transparent state.                      *)

(** The channel id actually claimed on the environment at open. *)
let chan_id (s : state) : string = s.chan_id

(** Alice's current watchtower record for this channel ([None] until
    the first update — state 0 has nothing to revoke). *)
let watch_record (s : state) : Watchtower.record option =
  Watchtower.record_for s.alice ~id:s.chan_id

(** Freeze both parties and replay Bob's revoked state-0 commit on
    chain with no delay. With both punish daemons dead only an
    external watchtower holding the channel's record can react —
    exactly the delegated-monitoring scenario of the scale harness.
    Requires at least one prior update (otherwise state 0 is not
    revoked and the tower rightly stays silent). *)
let publish_revoked (s : state) : unit =
  Driver.corrupt s.d s.alice.Party.pid;
  Driver.corrupt s.d s.bob.Party.pid;
  Driver.adversary_post s.d s.old_commit
