(** Generic lifecycle world over any registered {!Scheme_intf.SCHEME}.

    Where {!Closure_world} explores the Daric transaction graph
    transaction-by-transaction, this world explores the *scheme
    interface*: every interleaving of bounded update sequences, idle
    settle rounds, and the three closure scenarios (collaborative,
    dishonest old-state publication, unilateral force close), for any
    scheme in the {!Daric_schemes.Registry}. The Table-1 predicates
    are checked on the reported {!Scheme_intf.outcome} and on the
    chain itself:

    - bounded-closure — the outcome resolves within
      [4 * rel_lock + 12] rounds;
    - punish-or-refund — a dishonest close ends punished, or with the
      stale state overridden on-chain (eltoo-style schemes refund at
      the latest state instead of punishing);
    - no-honest-loss — once resolved, the unspent descendants of the
      funding output still carry the full channel cash (no value
      drained or burned on any closure path);
    - scenario-failure — any lifecycle step returning a typed error.

    Snapshot/restore is replay-based: a snapshot is the action
    history, and restore rebuilds a fresh environment (same seeds) and
    replays it — schemes need no checkpointing support of their own. *)

module I = Daric_schemes.Scheme_intf
module H = Daric_schemes.Harness
module Registry = Daric_schemes.Registry
module Tx = Daric_tx.Tx
module Ledger = Daric_chain.Ledger

type close = [ `Collaborative | `Dishonest | `Force ]
type action = Update | Settle | Close of close

let action_to_string = function
  | Update -> "update"
  | Settle -> "settle"
  | Close `Collaborative -> "close:coop"
  | Close `Dishonest -> "close:dishonest"
  | Close `Force -> "close:force"

type cfg = {
  max_updates : int;
  max_settles : int;
  delta : int;
  config : I.config;
}

let default_cfg =
  { max_updates = 3; max_settles = 2; delta = 1; config = I.default_config }

(* The closure deadline every scheme's own dispute loop already honours
   (see the per-scheme [run_until] caps). *)
let rounds_bound (c : cfg) : int = (4 * c.config.I.rel_lock) + 12

(* An opened channel with its scheme packaged existentially. *)
module type INSTANCE = sig
  module S : I.SCHEME

  val ch : S.t
end

type world = {
  cfg : cfg;
  scheme : (module I.SCHEME);
  name : string;
  mutable env : I.env;
  mutable inst : (module INSTANCE) option;
  mutable updates_done : int;
  mutable settles_done : int;
  mutable outcome : (close * I.outcome) option;
  mutable failure : I.error option;
  mutable history : action list;  (** newest first — the snapshot *)
}

let open_instance (w : world) : unit =
  let module S = (val w.scheme : I.SCHEME) in
  match S.open_channel w.env w.cfg.config with
  | Ok ch ->
      w.inst <-
        Some
          (module struct
            module S = S

            let ch = ch
          end : INSTANCE)
  | Error e -> w.failure <- Some e

let reset (w : world) : unit =
  w.env <- I.make_env ~delta:w.cfg.delta ();
  w.inst <- None;
  w.updates_done <- 0;
  w.settles_done <- 0;
  w.outcome <- None;
  w.failure <- None;
  w.history <- [];
  open_instance w

let create (scheme : (module I.SCHEME)) (cfg : cfg) : world =
  let module S = (val scheme : I.SCHEME) in
  let w =
    { cfg; scheme; name = S.name;
      env = I.make_env ~delta:cfg.delta ();
      inst = None; updates_done = 0; settles_done = 0;
      outcome = None; failure = None; history = [] }
  in
  open_instance w;
  w

let sn (w : world) : int =
  match w.inst with
  | None -> 0
  | Some (module Inst) -> Inst.S.sn Inst.ch

(* ------------------------------------------------------------------ *)
(* Step relation.                                                      *)

let actions (w : world) : action list =
  if w.outcome <> None || w.failure <> None then []
  else
    match w.inst with
    | None -> []
    | Some _ ->
        (if w.updates_done < w.cfg.max_updates then [ Update ] else [])
        @ (if w.settles_done < w.cfg.max_settles then [ Settle ] else [])
        @ [ Close `Collaborative ]
        @ (if sn w >= 1 then [ Close `Dishonest ] else [])
        @ [ Close `Force ]

let apply_raw (w : world) (a : action) : unit =
  match (a, w.inst) with
  | _, None -> ()
  | Update, Some (module Inst) -> (
      w.updates_done <- w.updates_done + 1;
      let bal_a, bal_b = H.balance_at w.cfg.config w.updates_done in
      match Inst.S.update Inst.ch ~bal_a ~bal_b with
      | Ok () -> ()
      | Error e -> w.failure <- Some e)
  | Settle, Some _ ->
      w.settles_done <- w.settles_done + 1;
      I.settle w.env 1
  | Close c, Some (module Inst) -> (
      let run =
        match c with
        | `Collaborative -> Inst.S.collaborative_close
        | `Dishonest -> Inst.S.dishonest_close
        | `Force -> Inst.S.force_close
      in
      match run Inst.ch with
      | Ok o -> w.outcome <- Some (c, o)
      | Error e -> w.failure <- Some e)

let apply (w : world) (a : action) : unit =
  w.history <- a :: w.history;
  apply_raw w a

(* ------------------------------------------------------------------ *)
(* Invariants.                                                         *)

(* Sum of the unspent on-chain descendants of [op]: follow spenders
   breadth-first, counting the leaves still in the UTXO set. *)
let rec descendant_value (ledger : Ledger.t) (op : Tx.outpoint) : int =
  match Ledger.spender_of ledger op with
  | None -> (
      match Ledger.find_utxo ledger op with
      | Some u -> u.Ledger.output.Tx.value
      | None -> 0)
  | Some sp ->
      List.fold_left ( + ) 0
        (List.mapi
           (fun i _ -> descendant_value ledger (Tx.outpoint_of sp i))
           sp.Tx.outputs)

let check (w : world) : Mcheck.violation list =
  match (w.failure, w.outcome, w.inst) with
  | Some e, _, _ ->
      [ { Mcheck.invariant = Mcheck.scenario_failure;
          detail = I.error_to_string e } ]
  | None, Some (c, o), Some (module Inst) ->
      let vs = ref [] in
      let add invariant detail =
        vs := { Mcheck.invariant; detail } :: !vs
      in
      if not o.I.resolved then
        add Mcheck.bounded_closure
          (Printf.sprintf "%s close did not resolve" (action_to_string (Close c)))
      else if o.I.rounds > rounds_bound w.cfg then
        add Mcheck.bounded_closure
          (Printf.sprintf "%s close took %d rounds (bound %d)"
             (action_to_string (Close c))
             o.I.rounds (rounds_bound w.cfg));
      if
        c = `Dishonest && o.I.resolved
        && (not o.I.punished)
        && not (List.mem I.Overridden o.I.trace)
      then
        add Mcheck.punish_or_refund
          "old state published, neither punished nor overridden";
      if o.I.resolved then begin
        let total = w.cfg.config.I.bal_a + w.cfg.config.I.bal_b in
        let v = descendant_value w.env.I.ledger (Inst.S.funding Inst.ch) in
        if v < total then
          add Mcheck.no_honest_loss
            (Printf.sprintf
               "funding descendants hold %d of %d after resolution" v total)
      end;
      List.rev !vs
  | _ -> []

(* ------------------------------------------------------------------ *)
(* Fingerprint and replay-based snapshot.                              *)

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
  str w.name;
  int w.updates_done;
  int w.settles_done;
  int (sn w);
  (match w.outcome with
  | None -> str "open"
  | Some (c, o) ->
      str (action_to_string (Close c));
      int (if o.I.punished then 1 else 0);
      int (if o.I.resolved then 1 else 0);
      int o.I.rounds;
      List.iter (fun e -> str (I.event_to_string e)) o.I.trace);
  (match w.failure with
  | None -> ()
  | Some e -> str (I.error_to_string e));
  Buffer.add_char b '|';
  int (Ledger.height w.env.I.ledger);
  List.iter
    (fun (r, tx) ->
      int r;
      str (Tx.txid tx))
    (Ledger.accepted w.env.I.ledger);
  Daric_crypto.Hash.hash256 (Buffer.contents b)

type snap = action list

let snapshot (w : world) : snap = w.history

let restore (w : world) (s : snap) : unit =
  reset w;
  List.iter (apply_raw w) (List.rev s);
  w.history <- s

(* ------------------------------------------------------------------ *)

let outcome (w : world) : (close * I.outcome) option = w.outcome
let failure (w : world) : I.error option = w.failure
let env (w : world) : I.env = w.env

let model ?(cfg = default_cfg) (scheme : (module I.SCHEME)) :
    (module Mcheck.MODEL with type world = world) =
  let module S = (val scheme : I.SCHEME) in
  (module struct
    let name = "scheme/" ^ S.name

    type nonrec world = world
    type nonrec action = action
    type nonrec snap = snap

    let action_to_string = action_to_string
    let init () = create scheme cfg
    let actions = actions
    let apply = apply
    let fingerprint = fingerprint
    let check = check
    let snapshot = snapshot
    let restore = restore
  end)

let model_by_name ?(cfg = default_cfg) (name : string) :
    (module Mcheck.MODEL with type world = world) option =
  Option.map (fun s -> model ~cfg s) (Registry.find name)
