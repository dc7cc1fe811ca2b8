(** Adversarial closure world for the Daric transaction graph.

    The world drives the {!Daric_staticcheck.Daricmodel} closure — the
    real funding/commit/split/revocation transactions, with genuine
    keys and signatures — against a {!Daric_chain.Ledger} under a
    bounded adversary: Bob may publish any of his commits (including
    revoked ones) with any publication delay up to Δ, race his own
    split against Alice's revocation, and crash Alice for a bounded
    number of rounds; Alice follows the honest reaction rule (punish a
    revoked commit with a rebound revocation, otherwise enforce the
    split). The checker's Table-1 invariants are evaluated on the final
    UTXO set:

    - punish-or-refund — a revoked commit resolving on-chain leaves
      the honest party with the whole channel cash;
    - no-honest-loss — an honest closure pays each party at least its
      latest-state balance;
    - bounded-closure — once any close is initiated, the funding
      output resolves within [rel_lock + max_offline + Δ + 3] rounds.

    Rebinding floating transactions needs no keys: splits and
    revocations are ANYPREVOUT-signed over (locktime, outputs), so the
    two witness signatures are extracted and re-completed against the
    published commit's outpoint and script. *)

module Tx = Daric_tx.Tx
module Ledger = Daric_chain.Ledger
module Keys = Daric_core.Keys
module Txs = Daric_core.Txs
module Dm = Daric_staticcheck.Daricmodel

type cfg = {
  n_states : int;
  rel_lock : int;
  delta : int;
  max_offline : int;  (** longest crash, in missed rounds *)
  horizon : int;  (** last ledger round explored *)
  mutate : Dm.mutation option;
}

(* Defaults chosen so every timing class is distinguishable:
   [delta = 2] gives the adversary a real delay choice (the ledger
   clamps delay 0 and 1 to the same due round), [rel_lock = 4] keeps
   the clean revocation race winnable even through a crash
   ([max_offline <= rel_lock - delta - 1]), and [n_states = 2] makes
   the single retained revocation the critical one, so every seeded
   mutation of the closure graph is observable. *)
let default_cfg =
  { n_states = 2; rel_lock = 4; delta = 2; max_offline = 1; horizon = 16;
    mutate = None }

let deadline (c : cfg) : int = c.rel_lock + c.max_offline + c.delta + 3

(* Close-initiating actions are only enabled early enough that their
   [deadline] verdict falls inside the horizon. *)
let close_window (c : cfg) : int = c.horizon - deadline c - 2

type world = {
  cfg : cfg;
  m : Dm.model;
  ledger : Ledger.t;
  fund_op : Tx.outpoint;
  pkh_a : string;
  pkh_b : string;
  mutable bob_commit : (int * string) option;
      (** state and txid of the commit Bob posted *)
  mutable bob_split_posted : bool;
  mutable alice_closed : bool;
  mutable coop_posted : bool;
  mutable crash_used : bool;
  mutable offline_until : int;
      (** Alice reacts only at rounds strictly above this *)
  mutable close_attempt : int option;
      (** round of the first close-initiating action *)
  mutable reacted : string list;  (** txids Alice has already posted *)
}

type action =
  | Tick
  | Bob_commit of int * int  (** state, publication delay *)
  | Bob_split of int  (** publication delay *)
  | Alice_close
  | Coop_close
  | Crash of int  (** rounds Alice stays offline *)

let action_to_string = function
  | Tick -> "tick"
  | Bob_commit (i, d) -> Printf.sprintf "bob-commit(%d,+%d)" i d
  | Bob_split d -> Printf.sprintf "bob-split(+%d)" d
  | Alice_close -> "alice-close"
  | Coop_close -> "coop-close"
  | Crash k -> Printf.sprintf "crash(%d)" k

(* ------------------------------------------------------------------ *)
(* Entry lookup and ANYPREVOUT rebinding.                              *)

let commit_entry (w : world) (role : Keys.role) (i : int) : Dm.entry option =
  List.find_opt
    (fun (e : Dm.entry) -> e.Dm.kind = Dm.Commit (role, i))
    w.m.Dm.entries

let split_entry (w : world) (i : int) : Dm.entry option =
  List.find_opt
    (fun (e : Dm.entry) -> e.Dm.kind = Dm.Split i)
    w.m.Dm.entries

let fin_entry (w : world) : Dm.entry option =
  List.find_opt (fun (e : Dm.entry) -> e.Dm.kind = Dm.Fin_split) w.m.Dm.entries

(* The latest retained revocation covering state [i]: its nLockTime
   (s0 + r, r >= i) satisfies the commit script's CLTV for every
   state <= r, the storage argument of the paper's Section 8. *)
let covering_revoke (w : world) (i : int) : Dm.entry option =
  List.filter_map
    (fun (e : Dm.entry) ->
      match e.Dm.kind with Dm.Revoke r when r >= i -> Some (r, e) | _ -> None)
    w.m.Dm.entries
  |> List.sort (fun (a, _) (b, _) -> compare b a)
  |> function [] -> None | (_, e) :: _ -> Some e

(* Splits and revocations are completed with the 5-element witness
   [dummy; sig1; sig2; branch-selector; script]. *)
let witness_sigs (tx : Tx.t) : string * string =
  match tx.Tx.witnesses with
  | [ [ Tx.Data _; Tx.Data s1; Tx.Data s2; Tx.Data _; Tx.Wscript _ ] ] ->
      (s1, s2)
  | _ -> invalid_arg "Closure_world.witness_sigs: unexpected witness shape"

let rebind_split (sp : Dm.entry) (target : Dm.entry) : Tx.t =
  let sig_a, sig_b = witness_sigs sp.Dm.tx in
  Txs.complete_split sp.Dm.tx
    ~commit_outpoint:(Tx.outpoint_of target.Dm.tx 0)
    ~commit_script:(Option.get target.Dm.script)
    ~sig_a ~sig_b

let rebind_revoke (rv : Dm.entry) (target : Dm.entry) : Tx.t =
  let sig1, sig2 = witness_sigs rv.Dm.tx in
  Txs.complete_revocation rv.Dm.tx
    ~commit_outpoint:(Tx.outpoint_of target.Dm.tx 0)
    ~commit_script:(Option.get target.Dm.script)
    ~sig1 ~sig2

(* ------------------------------------------------------------------ *)
(* World construction and observation.                                 *)

let create (cfg : cfg) : world =
  let m =
    Dm.build ~n_states:cfg.n_states ~rel_lock:cfg.rel_lock ?mutate:cfg.mutate
      ()
  in
  let ledger = Ledger.create ~delta:cfg.delta () in
  let fund =
    List.find (fun (e : Dm.entry) -> e.Dm.kind = Dm.Fund) m.Dm.entries
  in
  Ledger.record ledger fund.Dm.tx;
  let pkh pk = Daric_crypto.Hash.hash160 (Keys.enc pk) in
  let pa = Keys.pub m.Dm.keys_a and pb = Keys.pub m.Dm.keys_b in
  { cfg; m; ledger;
    fund_op = Tx.outpoint_of fund.Dm.tx 0;
    pkh_a = pkh pa.Keys.main_pk;
    pkh_b = pkh pb.Keys.main_pk;
    bob_commit = None; bob_split_posted = false; alice_closed = false;
    coop_posted = false; crash_used = false; offline_until = -1;
    close_attempt = None; reacted = [] }

let round (w : world) : int = Ledger.height w.ledger
let ledger (w : world) : Ledger.t = w.ledger
let funding (w : world) : Tx.outpoint = w.fund_op
let cash (w : world) : int = w.m.Dm.cash

(* The funding output resolved: spent by the collaborative close, or by
   a commit whose own output has been spent (split or revocation). *)
let resolved (w : world) : bool =
  match Ledger.spender_of w.ledger w.fund_op with
  | None -> false
  | Some sp -> (
      match fin_entry w with
      | Some fe when Tx.txid sp = Tx.txid fe.Dm.tx -> true
      | _ -> Ledger.spender_of w.ledger (Tx.outpoint_of sp 0) <> None)

let stale_published (w : world) : bool =
  List.exists
    (fun (e : Dm.entry) ->
      match e.Dm.kind with
      | Dm.Commit (_, i) ->
          i < w.cfg.n_states - 1
          && Ledger.recorded_round_of w.ledger (Tx.txid e.Dm.tx) <> None
      | _ -> false)
    w.m.Dm.entries

(* Final P2WPKH holdings of each party's main key. *)
let payouts (w : world) : int * int =
  Ledger.fold_utxos w.ledger
    (fun _op (u : Ledger.utxo) (a, b) ->
      match u.Ledger.output.Tx.spk with
      | Tx.P2wpkh h when h = w.pkh_a -> (a + u.Ledger.output.Tx.value, b)
      | Tx.P2wpkh h when h = w.pkh_b -> (a, b + u.Ledger.output.Tx.value)
      | _ -> (a, b))
    (0, 0)

(* ------------------------------------------------------------------ *)
(* Honest reaction.                                                    *)

(* Alice's per-round monitor: for every on-chain commit whose output is
   still unspent, post the first enforceable response — the covering
   revocation if the commit is revoked (and hers to punish: revocation
   signatures only fit Bob's commit scripts), otherwise the rebound
   split. Candidates are validated before posting, so a not-yet-mature
   CSV simply retries next round; a candidate posted once is never
   reposted. *)
let alice_react (w : world) : unit =
  List.iter
    (fun (e : Dm.entry) ->
      match e.Dm.kind with
      | Dm.Commit (role, i)
        when Ledger.recorded_round_of w.ledger (Tx.txid e.Dm.tx) <> None
             && Ledger.is_unspent w.ledger (Tx.outpoint_of e.Dm.tx 0) ->
          let rev_cands =
            if role = Keys.Bob && i < w.cfg.n_states - 1 then
              match covering_revoke w i with
              | Some rv -> [ rebind_revoke rv e ]
              | None -> []
            else []
          in
          let split_cands =
            match split_entry w i with
            | Some sp -> [ rebind_split sp e ]
            | None -> []
          in
          let try_post tx =
            let txid = Tx.txid tx in
            (not (List.mem txid w.reacted))
            &&
            match Ledger.validate w.ledger tx with
            | Ok () ->
                Ledger.post w.ledger tx ~delay:0;
                w.reacted <- txid :: w.reacted;
                true
            | Error _ -> false
          in
          ignore (List.exists try_post (rev_cands @ split_cands))
      | _ -> ())
    w.m.Dm.entries

(* ------------------------------------------------------------------ *)
(* The step relation.                                                  *)

let actions (w : world) : action list =
  let r = round w in
  let res = resolved w in
  if r >= w.cfg.horizon || (res && Ledger.pending_due w.ledger = []) then []
  else
    let cw = close_window w.cfg in
    let delays = if w.cfg.delta > 0 then [ 0; w.cfg.delta ] else [ 0 ] in
    let funding_live = Ledger.is_unspent w.ledger w.fund_op in
    let bob_commits =
      if w.bob_commit = None && funding_live && r <= cw then
        List.concat_map
          (fun i -> List.map (fun d -> Bob_commit (i, d)) delays)
          (List.init w.cfg.n_states (fun i -> i))
      else []
    in
    let bob_splits =
      match w.bob_commit with
      | Some (_, txid) when not w.bob_split_posted -> (
          match Ledger.recorded_round_of w.ledger txid with
          | Some rc when Ledger.is_unspent w.ledger { Tx.txid; vout = 0 } ->
              List.filter_map
                (fun d ->
                  if r + max d 1 >= rc + w.cfg.rel_lock then
                    Some (Bob_split d)
                  else None)
                delays
          | _ -> [])
      | _ -> []
    in
    let alice =
      if (not w.alice_closed) && funding_live && r <= cw
         && r > w.offline_until
      then [ Alice_close ]
      else []
    in
    let coop =
      if (not w.coop_posted) && funding_live && r <= cw then [ Coop_close ]
      else []
    in
    let crash =
      if (not w.crash_used) && r > w.offline_until then
        List.init w.cfg.max_offline (fun k -> Crash (k + 1))
      else []
    in
    (Tick :: bob_commits) @ bob_splits @ alice @ coop @ crash

let apply (w : world) (a : action) : unit =
  let note_close () =
    if w.close_attempt = None then w.close_attempt <- Some (round w)
  in
  match a with
  | Tick ->
      ignore (Ledger.tick w.ledger);
      if round w > w.offline_until then alice_react w
  | Bob_commit (i, d) -> (
      match commit_entry w Keys.Bob i with
      | Some e ->
          note_close ();
          Ledger.post w.ledger e.Dm.tx ~delay:d;
          w.bob_commit <- Some (i, Tx.txid e.Dm.tx)
      | None -> ())
  | Bob_split d -> (
      w.bob_split_posted <- true;
      match w.bob_commit with
      | None -> ()
      | Some (i, _) -> (
          match (commit_entry w Keys.Bob i, split_entry w i) with
          | Some ce, Some sp -> Ledger.post w.ledger (rebind_split sp ce) ~delay:d
          | _ -> ()))
  | Alice_close -> (
      match commit_entry w Keys.Alice (w.cfg.n_states - 1) with
      | Some e ->
          note_close ();
          Ledger.post w.ledger e.Dm.tx ~delay:0;
          w.alice_closed <- true
      | None -> ())
  | Coop_close -> (
      match fin_entry w with
      | Some e ->
          note_close ();
          Ledger.post w.ledger e.Dm.tx ~delay:0;
          w.coop_posted <- true
      | None -> ())
  | Crash k ->
      w.crash_used <- true;
      w.offline_until <- round w + k

(* ------------------------------------------------------------------ *)
(* Fingerprint, invariants, snapshot.                                  *)

let fingerprint (w : world) : string =
  let b = Buffer.create 512 in
  let int i =
    Buffer.add_string b (string_of_int i);
    Buffer.add_char b ';'
  in
  let str s =
    Buffer.add_string b s;
    Buffer.add_char b ';'
  in
  int (round w);
  int w.offline_until;
  int (match w.close_attempt with None -> -1 | Some r -> r);
  int (match w.bob_commit with None -> -1 | Some (i, _) -> i);
  List.iter
    (fun fl -> Buffer.add_char b (if fl then '1' else '0'))
    [ w.bob_split_posted; w.alice_closed; w.coop_posted; w.crash_used ];
  Buffer.add_char b '|';
  List.iter
    (fun (r, tx) ->
      int r;
      str (Tx.txid tx))
    (Ledger.accepted w.ledger);
  Buffer.add_char b '|';
  List.iter
    (fun (due, txs) ->
      int due;
      List.iter (fun tx -> str (Tx.txid tx)) txs)
    (Ledger.pending_due w.ledger);
  Buffer.add_char b '|';
  List.iter str w.reacted;
  Daric_crypto.Hash.hash256 (Buffer.contents b)

let check (w : world) : Mcheck.violation list =
  if resolved w then begin
    let pay_a, pay_b = payouts w in
    if stale_published w then
      if pay_a < w.m.Dm.cash then
        [ { Mcheck.invariant = Mcheck.punish_or_refund;
            detail =
              Printf.sprintf
                "revoked state resolved without punishment: honest party \
                 holds %d of %d"
                pay_a w.m.Dm.cash } ]
      else []
    else
      let bal_a = (w.m.Dm.cash / 2) - (1000 * (w.cfg.n_states - 1)) in
      let bal_b = w.m.Dm.cash - bal_a in
      if pay_a < bal_a || pay_b < bal_b then
        [ { Mcheck.invariant = Mcheck.no_honest_loss;
            detail =
              Printf.sprintf
                "settled at %d/%d but the latest state entitles %d/%d"
                pay_a pay_b bal_a bal_b } ]
      else []
  end
  else
    match w.close_attempt with
    | Some r0 when round w > r0 + deadline w.cfg ->
        [ { Mcheck.invariant = Mcheck.bounded_closure;
            detail =
              Printf.sprintf
                "close initiated at round %d still unresolved at round %d \
                 (bound %d)"
                r0 (round w) (deadline w.cfg) } ]
    | _ -> []

type snap = {
  s_ledger : Ledger.checkpoint;
  s_bob_commit : (int * string) option;
  s_bob_split_posted : bool;
  s_alice_closed : bool;
  s_coop_posted : bool;
  s_crash_used : bool;
  s_offline_until : int;
  s_close_attempt : int option;
  s_reacted : string list;
}

let snapshot (w : world) : snap =
  { s_ledger = Ledger.checkpoint w.ledger;
    s_bob_commit = w.bob_commit;
    s_bob_split_posted = w.bob_split_posted;
    s_alice_closed = w.alice_closed;
    s_coop_posted = w.coop_posted;
    s_crash_used = w.crash_used;
    s_offline_until = w.offline_until;
    s_close_attempt = w.close_attempt;
    s_reacted = w.reacted }

let restore (w : world) (s : snap) : unit =
  Ledger.rollback w.ledger s.s_ledger;
  w.bob_commit <- s.s_bob_commit;
  w.bob_split_posted <- s.s_bob_split_posted;
  w.alice_closed <- s.s_alice_closed;
  w.coop_posted <- s.s_coop_posted;
  w.crash_used <- s.s_crash_used;
  w.offline_until <- s.s_offline_until;
  w.close_attempt <- s.s_close_attempt;
  w.reacted <- s.s_reacted

(* ------------------------------------------------------------------ *)

let model ?(cfg = default_cfg) ?name () :
    (module Mcheck.MODEL with type world = world) =
  let mname =
    match name with
    | Some n -> n
    | None -> (
        match cfg.mutate with
        | None -> "daric-closure"
        | Some mu -> "daric-closure/" ^ Dm.mutation_name mu)
  in
  (module struct
    let name = mname

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
