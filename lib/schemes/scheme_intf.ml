(** First-class channel-scheme interface.

    Every payment-channel construction in this repository — Daric and
    the seven baselines of Table 1 — implements the {!SCHEME} module
    type, so tables, benchmarks, the CLI and the conformance suite can
    drive any of them through one lifecycle with one instrumentation
    path:

    open → update×n → collaborative close
                    | dishonest old-state publication → dispute
                    | non-collaborative force close → dispute

    Instrumentation is uniform: party/watchtower storage in bytes,
    cumulative Sign/Verify/Exp counters, and a structured trace of
    {!event}s for every closure scenario. Failures are typed
    ({!error}) rather than exceptions, so one scheme's failure never
    kills a whole table regeneration. *)

module Tx = Daric_tx.Tx
module Sighash = Daric_tx.Sighash
module Script = Daric_script.Script
module Ledger = Daric_chain.Ledger
module Keys = Daric_core.Keys

(* ------------------------------------------------------------------ *)
(* Shared environment.                                                 *)

(** The shared execution environment a scheme instance runs against.
    [chan_ids] tracks every channel id claimed on this env so two
    instances opened with identical configs cannot silently collide in
    a shared tower or funding index (see {!claim_chan_id}). *)
type env = {
  ledger : Ledger.t;
  rng : Daric_util.Rng.t;
  delta : int;
  chan_ids : (string, int) Hashtbl.t;
}

let make_env ?(delta = 1) ?(seed = 7) () : env =
  { ledger = Ledger.create ~delta ();
    rng = Daric_util.Rng.create ~seed;
    delta;
    chan_ids = Hashtbl.create 8 }

(** Claim [id] on this environment, deriving a fresh ["id~k"] when the
    requested id is already taken. Schemes that index per-channel state
    by id (protocol parties, watchtower records) route their config's
    [chan_id] through this at open, so two instances opened with
    {!default_config} on one env get distinct ids instead of silently
    sharing one tower/funding slot. *)
let rec claim_chan_id (env : env) (id : string) : string =
  match Hashtbl.find_opt env.chan_ids id with
  | None ->
      Hashtbl.replace env.chan_ids id 0;
      id
  | Some n ->
      Hashtbl.replace env.chan_ids id (n + 1);
      claim_chan_id env (Printf.sprintf "%s~%d" id (n + 1))

(** Per-channel opening parameters. [t_end] only matters to schemes
    with a limited lifetime (Sleepy); [party_seed] and [chan_id] to
    schemes that create their own protocol parties (Daric) — distinct
    ids let many instances share one environment, e.g. the scale
    harness driving 100k channels on one ledger. *)
type config = {
  bal_a : int;
  bal_b : int;
  rel_lock : int;  (** dispute window T (rounds) *)
  t_end : int;  (** absolute channel end-time (Sleepy) *)
  party_seed : int;
  chan_id : string;
}

let default_config =
  { bal_a = 500_000; bal_b = 500_000; rel_lock = 3; t_end = 1_000_000;
    party_seed = 1; chan_id = "c" }

(* ------------------------------------------------------------------ *)
(* Instrumentation.                                                    *)

(** Cumulative per-party operation counters (Table 3 accounting). *)
type ops = { signs : int; verifies : int; exps : int }

let ops_zero = { signs = 0; verifies = 0; exps = 0 }

(** [o] plus the given counts: how a scheme records the operations of
    one protocol step. *)
let ops_add ?(signs = 0) ?(verifies = 0) ?(exps = 0) (o : ops) : ops =
  { signs = o.signs + signs;
    verifies = o.verifies + verifies;
    exps = o.exps + exps }

let ops_sub (a : ops) (b : ops) : ops =
  { signs = a.signs - b.signs;
    verifies = a.verifies - b.verifies;
    exps = a.exps - b.exps }

let ops_div (o : ops) (n : int) : ops =
  if n <= 0 then ops_zero
  else { signs = o.signs / n; verifies = o.verifies / n; exps = o.exps / n }

(** Structured trace events emitted by the closure scenarios. *)
type event =
  | Opened
  | Updated of int  (** new state number *)
  | Old_state_published of int  (** revoked state number *)
  | Latest_published
  | Punished
  | Overridden  (** old state superseded on-chain without punishment *)
  | Settled  (** final balances enforced on-chain *)
  | Cheater_escaped  (** dispute lost: no reaction was possible *)

let event_to_string = function
  | Opened -> "opened"
  | Updated i -> Printf.sprintf "updated to state %d" i
  | Old_state_published i -> Printf.sprintf "old state %d published" i
  | Latest_published -> "latest state published"
  | Punished -> "cheater punished"
  | Overridden -> "old state overridden"
  | Settled -> "settled"
  | Cheater_escaped -> "cheater escaped"

(** Result of a closure scenario. [rounds] counts ledger rounds from
    the scenario start to its last on-chain effect. *)
type outcome = {
  punished : bool;
  resolved : bool;
  rounds : int;
  trace : event list;
}

(** Typed failure: which scheme, at which lifecycle stage, and why. *)
type error = { scheme : string; stage : string; reason : string }

let error_to_string (e : error) : string =
  Printf.sprintf "%s/%s: %s" e.scheme e.stage e.reason

let fail ~scheme ~stage reason : ('a, error) result =
  Error { scheme; stage; reason }

(* ------------------------------------------------------------------ *)
(* The interface.                                                      *)

module type SCHEME = sig
  val name : string
  (** Matches the scheme's {!Costmodel} row name. *)

  val has_watchtower : bool

  type t

  val open_channel : env -> config -> (t, error) result
  val update : t -> bal_a:int -> bal_b:int -> (unit, error) result
  val sn : t -> int
  val funding : t -> Tx.outpoint

  val party_bytes : t -> int
  (** One party's current channel storage, in bytes. *)

  val watchtower_bytes : t -> int option
  (** [None] when the scheme has no watchtower protocol. *)

  val ops : t -> ops
  (** Cumulative per-party operation counters. *)

  val known_pubkeys : t -> string list
  (** Every encoded public key (33-byte {!Keys.enc} form) that may
      legitimately appear as a [Checksig]/[Checkmultisig] operand or
      P2WPKH owner in this channel's transactions so far: party keys,
      per-state revocation keys (both generated and received),
      watchtower keys, adaptor statements. The static-analysis DAG
      linter treats any key outside this set as an orphan. *)

  val collaborative_close : t -> (outcome, error) result
  (** Both parties co-sign the final balance split. *)

  val dishonest_close : t -> (outcome, error) result
  (** One party publishes a revoked state; the other disputes. Requires
      at least one prior {!update}. *)

  val force_close : t -> (outcome, error) result
  (** Unilateral close at the latest state, then dispute resolution. *)
end

(* ------------------------------------------------------------------ *)
(* Shared plumbing for SCHEME implementations.                         *)

(** Advance the shared ledger [n] rounds. *)
let settle (env : env) (n : int) : unit =
  for _ = 1 to n do
    ignore (Ledger.tick env.ledger)
  done

(** Validate, post with no adversarial delay, and confirm in the next
    round. The explicit validation turns ledger rejections into typed
    errors instead of silently dropped transactions. *)
let post_confirmed (env : env) ~(scheme : string) ~(stage : string)
    (tx : Tx.t) : (unit, error) result =
  match Ledger.validate env.ledger tx with
  | Error r -> fail ~scheme ~stage (Ledger.reject_to_string r)
  | Ok () ->
      Ledger.post env.ledger tx ~delay:0;
      settle env 1;
      Ok ()

let spent (env : env) (op : Tx.outpoint) : bool =
  Ledger.spender_of env.ledger op <> None

(** The 2-of-2 multisig of [a] and [b]: every baseline's funding
    script — over the parties' main keys, or eltoo's update keys. *)
let multisig_2of2 (a : Keys.keypair) (b : Keys.keypair) : Script.t =
  Script.multisig_2 (Keys.enc a.Keys.pk) (Keys.enc b.Keys.pk)

(** Mint [value] and record the funding transaction that locks it in a
    P2WSH {!multisig_2of2} of [a] and [b]. *)
let fund_2of2 (ledger : Ledger.t) ~(value : int) (a : Keys.keypair)
    (b : Keys.keypair) : Tx.t =
  let src = Ledger.mint ledger ~value ~spk:Tx.Op_return in
  let fund =
    Tx.make ~witnesses:[ [] ] ~inputs:[ Tx.input_of_outpoint src ]
      ~outputs:[ { Tx.value; spk = Tx.P2wsh (Script.hash (multisig_2of2 a b)) } ]
      ()
  in
  Ledger.record ledger fund;
  fund

(** Co-sign [body]'s single input (SIGHASH_ALL) with [sk_a] and [sk_b],
    in CHECKMULTISIG witness order. [wscript] is the witness script a
    P2WSH output reveals; a raw-script output (eltoo's funding) takes
    none. *)
let cosign ?(wscript : Script.t option)
    ~(sk_a : Daric_crypto.Schnorr.secret_key)
    ~(sk_b : Daric_crypto.Schnorr.secret_key) (body : Tx.t) : Tx.t =
  let msg = Sighash.message All body ~input_index:0 in
  let sig_a = Sighash.sign_message sk_a All msg in
  let sig_b = Sighash.sign_message sk_b All msg in
  let sigs = [ Tx.Data ""; Tx.Data sig_a; Tx.Data sig_b ] in
  Tx.with_witnesses body
    [ (match wscript with Some s -> sigs @ [ Tx.Wscript s ] | None -> sigs) ]

(** {!cosign} for a {!fund_2of2} funding output of [a] and [b]: how
    every baseline signs its commits. *)
let cosign_2of2 (a : Keys.keypair) (b : Keys.keypair) (body : Tx.t) : Tx.t =
  cosign ~wscript:(multisig_2of2 a b) ~sk_a:a.Keys.sk ~sk_b:b.Keys.sk body

(** P2WPKH output paying [value] to [pk]. *)
let pay_to_pk ~(value : int) (pk : Daric_crypto.Schnorr.public_key) :
    Tx.output =
  { Tx.value;
    spk = Tx.P2wpkh (Daric_crypto.Hash.hash160 (Keys.enc pk)) }

(** Sweep output 0 of [published] in full to {!pay_to_pk} [to_pk]
    through the delayed (ELSE) branch of its P2WSH [script]: one
    SIGHASH_ALL signature by [sk], witness [sig; ""; script]. How the
    penalty baselines claim their own balance after the dispute
    window; [locktime] is for an absolute (CLTV) delay. *)
let sweep_delayed ?(locktime : int option) ~(script : Script.t)
    ~(sk : Daric_crypto.Schnorr.secret_key)
    ~(to_pk : Daric_crypto.Schnorr.public_key) (published : Tx.t) : Tx.t =
  let value = (List.hd published.Tx.outputs).Tx.value in
  let body =
    Tx.make ?locktime
      ~inputs:[ Tx.input_of_outpoint (Tx.outpoint_of published 0) ]
      ~outputs:[ pay_to_pk ~value to_pk ] ()
  in
  let sg = Sighash.sign sk All body ~input_index:0 in
  Tx.with_witnesses body [ [ Tx.Data sg; Tx.Data ""; Tx.Wscript script ] ]

(* ------------------------------------------------------------------ *)
(* Shared closure frames.                                              *)

(** The outcome of a scenario that started at ledger height [h0] and
    ends now. *)
let outcome (env : env) ~(h0 : int) ?(punished = false) ~(resolved : bool)
    (trace : event list) : (outcome, error) result =
  Ok { punished; resolved; rounds = Ledger.height env.ledger - h0; trace }

(** A dishonest close before the first update: no state is revoked
    yet, so there is nothing to publish. *)
let no_revoked_state ~(scheme : string) : ('a, error) result =
  fail ~scheme ~stage:"dishonest_close"
    "no revoked state (needs at least one update)"

(** The state number a commit carries in the nSequence of its single
    funding input; [-1] if it does not spend exactly one input. *)
let revoked_index (commit : Tx.t) : int =
  match commit.Tx.inputs with [ i ] -> i.Tx.sequence | _ -> -1

(** Collaborative close: both parties co-sign a transaction spending
    the funding output [outpoint] straight to [outputs], which then
    confirms. [wscript] is as for {!cosign}. *)
let coop_close ?(wscript : Script.t option) (env : env) ~(scheme : string)
    ~(outpoint : Tx.outpoint) ~(outputs : Tx.output list)
    ~(sk_a : Daric_crypto.Schnorr.secret_key)
    ~(sk_b : Daric_crypto.Schnorr.secret_key) : (outcome, error) result =
  let h0 = Ledger.height env.ledger in
  let tx =
    cosign ?wscript ~sk_a ~sk_b
      (Tx.make ~inputs:[ Tx.input_of_outpoint outpoint ] ~outputs ())
  in
  match post_confirmed env ~scheme ~stage:"collaborative_close" tx with
  | Error e -> Error e
  | Ok () -> outcome env ~h0 ~resolved:(spent env outpoint) [ Settled ]

(** {!coop_close} of a {!fund_2of2} funding output of [a] and [b]. *)
let coop_close_2of2 (env : env) ~(scheme : string) ~(outpoint : Tx.outpoint)
    ~(outputs : Tx.output list) (a : Keys.keypair) (b : Keys.keypair) :
    (outcome, error) result =
  coop_close env ~scheme ~outpoint ~outputs ~sk_a:a.Keys.sk ~sk_b:b.Keys.sk
    ~wscript:(multisig_2of2 a b)

(** Dishonest close: the cheater posts the revoked state [published]
    (state number [revoked_i]), then the victim reacts with [punish ()]
    — [None] when it holds nothing to punish with. The cheater is
    punished once [published]'s first output is spent. *)
let dispute (env : env) ~(scheme : string) ~(revoked_i : int)
    ~(published : Tx.t) ~(punish : unit -> Tx.t option) :
    (outcome, error) result =
  let ( let* ) = Result.bind in
  let h0 = Ledger.height env.ledger in
  let stage = "dishonest_close" in
  let* () = post_confirmed env ~scheme ~stage published in
  match punish () with
  | None ->
      outcome env ~h0 ~resolved:false
        [ Old_state_published revoked_i; Cheater_escaped ]
  | Some pen ->
      let* () = post_confirmed env ~scheme ~stage pen in
      let ok = spent env (Tx.outpoint_of published 0) in
      outcome env ~h0 ~punished:ok ~resolved:ok
        [ Old_state_published revoked_i; Punished ]

(** Force close: post the latest [commit], let [wait] rounds pass (the
    dispute window), then post [sweep ()], which claims the commit's
    first output. *)
let unilateral (env : env) ~(scheme : string) ~(commit : Tx.t) ~(wait : int)
    ~(sweep : unit -> Tx.t) : (outcome, error) result =
  let ( let* ) = Result.bind in
  let h0 = Ledger.height env.ledger in
  let stage = "force_close" in
  let* () = post_confirmed env ~scheme ~stage commit in
  settle env wait;
  let* () = post_confirmed env ~scheme ~stage (sweep ()) in
  outcome env ~h0
    ~resolved:(spent env (Tx.outpoint_of commit 0))
    [ Latest_published; Settled ]
