(** Executable Outpost channel [Khabbazian, Nadahalli, Wattenhofer 2019]
    (simplified).

    Outpost makes the watchtower (almost) stateless: the data needed to
    punish revoked commits is embedded inside the commitment
    transactions themselves, so the tower keeps only static channel
    information plus the latest state number — O(log n) bits.

    Mechanics in this model:
    - each party's per-state revocation secret is an element of a
      reverse hash chain: secret(j) = H^(N-j)(seed), so the secret of
      any state j' >= j yields every older secret by further hashing;
    - every commit carries a 1-satoshi data output embedding the chain
      values of the just-revoked state, i.e. publishing ANY commit of
      state sn reveals on chain everything needed to punish any state
      j < sn;
    - the victim (or its tower) holds only the latest commit pair and
      the counter sn: reading the embedded values off its own latest
      commit and hashing down reaches every revoked state.

    Note on Table 1: the real Outpost keeps O(n) party storage; the
    reverse hash chain here makes party storage effectively constant at
    the price of a lifetime limited to n_max updates — the same
    trade-off the paper's Table 1 footnote describes for merkle-tree
    key pre-generation. The watchtower column (O(log n)) is the claim
    this model reproduces. *)

module Tx = Daric_tx.Tx
module Sighash = Daric_tx.Sighash
module Script = Daric_script.Script
module Schnorr = Daric_crypto.Schnorr
module Ledger = Daric_chain.Ledger
module Keys = Daric_core.Keys

(* Chain length bound: the model supports up to [n_max] updates. *)
let n_max = 4096

type side = {
  main : Keys.keypair;
  penalty : Keys.keypair;  (** static key shared with the watchtower *)
  seed : string;  (** root of the reverse revocation hash chain *)
  mutable chain_cache : string array;  (** lazily computed chain values *)
}

(** H^(n_max - j)(seed): the chain value for state j. Knowing the value
    for j' lets anyone compute it for any j <= j' by hashing further.
    The whole chain is materialized once per side (bench-friendly);
    punishers in the field derive values by hashing down instead. *)
let chain_value (s : side) ~(j : int) : string =
  if j < 0 || j > n_max then invalid_arg "Outpost.chain_value";
  if Array.length s.chain_cache = 0 then begin
    let c = Array.make (n_max + 1) "" in
    c.(n_max) <- Daric_crypto.Sha256.digest ("outpost/" ^ s.seed);
    for k = n_max - 1 downto 0 do
      c.(k) <- Daric_crypto.Sha256.digest c.(k + 1)
    done;
    s.chain_cache <- c
  end;
  s.chain_cache.(j)

let chain_down (value : string) ~(from_state : int) ~(to_state : int) : string =
  if to_state > from_state then invalid_arg "Outpost.chain_down";
  let v = ref value in
  for _ = 1 to from_state - to_state do
    v := Daric_crypto.Sha256.digest !v
  done;
  !v

let secret_of_value (v : string) : Schnorr.secret_key =
  1 + (Daric_crypto.Hash.digest_to_int v mod (Daric_crypto.Group.q - 1))

let rev_secret (s : side) ~(j : int) : Schnorr.secret_key =
  secret_of_value (chain_value s ~j)

let rev_pk (s : side) ~(j : int) : Schnorr.public_key =
  Schnorr.public_key_of_secret (rev_secret s ~j)

type t = {
  ledger : Ledger.t;
  cash : int;
  rel_lock : int;
  fund : Tx.t;
  a : side;
  b : side;
  mutable sn : int;
  mutable commit_a : Tx.t;
  mutable commit_b : Tx.t;
  mutable ops : Scheme_intf.ops;
}

(** Balance output: penalty 2-of-2 (the publisher's state-j revocation
    key + the victim's static penalty key) or the owner after the CSV
    delay. *)
let balance_script (t : t) ~(rev_pk : Schnorr.public_key)
    ~(penalty_pk : Schnorr.public_key) ~(owner_pk : Schnorr.public_key) :
    Script.t =
  [ Script.If; Small 2; Push (Keys.enc rev_pk); Push (Keys.enc penalty_pk);
    Small 2; Checkmultisig; Else; Num t.rel_lock; Csv; Drop;
    Push (Keys.enc owner_pk); Checksig; Endif ]

(** The embedded-data output: an OP_RETURN-style script carrying the
    chain values of the previous (just-revoked) state. *)
let data_script ~(value_a : string) ~(value_b : string) : Script.t =
  [ Script.Return; Push value_a; Push value_b ]

let gen_commit (t : t) ~(owner : [ `A | `B ]) ~(bal_own : int)
    ~(bal_other : int) : Tx.t =
  let own, other = match owner with `A -> (t.a, t.b) | `B -> (t.b, t.a) in
  (* revoked-state chain values: state sn-1 (zeros at state 0) *)
  let value_a, value_b =
    if t.sn = 0 then (String.make 32 '\000', String.make 32 '\000')
    else (chain_value t.a ~j:(t.sn - 1), chain_value t.b ~j:(t.sn - 1))
  in
  Tx.make ~inputs:[ Tx.input_of_outpoint ~sequence:t.sn (Tx.outpoint_of t.fund 0) ] ~outputs:[ { Tx.value = bal_own;
          spk =
            Tx.P2wsh
              (Script.hash
                 (balance_script t ~rev_pk:(rev_pk own ~j:t.sn)
                    ~penalty_pk:other.penalty.Keys.pk
                    ~owner_pk:own.main.Keys.pk)) };
        Scheme_intf.pay_to_pk ~value:bal_other other.main.Keys.pk;
        { Tx.value = 1; spk = Tx.Raw (data_script ~value_a ~value_b) } ] ()

let sign_commit (t : t) : Tx.t -> Tx.t =
  Scheme_intf.cosign_2of2 t.a.main t.b.main

let create ?(rel_lock = 3) ~(ledger : Ledger.t) ~(rng : Daric_util.Rng.t)
    ~(bal_a : int) ~(bal_b : int) () : t =
  let mk_side () =
    { main = Keys.keygen rng; penalty = Keys.keygen rng;
      seed = Daric_util.Rng.bytes rng 16; chain_cache = [||] }
  in
  let a = mk_side () and b = mk_side () in
  let cash = bal_a + bal_b in
  (* +1 satoshi funds the data-output carrier of whichever commit
     eventually closes the channel *)
  let fund = Scheme_intf.fund_2of2 ledger ~value:(cash + 1) a.main b.main in
  let empty = Tx.make ~inputs:[] ~outputs:[] () in
  let t =
    { ledger; cash; rel_lock; fund; a; b; sn = 0; commit_a = empty;
      commit_b = empty; ops = Scheme_intf.ops_zero }
  in
  t.commit_a <- sign_commit t (gen_commit t ~owner:`A ~bal_own:bal_a ~bal_other:bal_b);
  t.commit_b <- sign_commit t (gen_commit t ~owner:`B ~bal_own:bal_b ~bal_other:bal_a);
  t

let update (t : t) ~(bal_a : int) ~(bal_b : int) : Tx.t * Tx.t =
  let old = (t.commit_a, t.commit_b) in
  t.sn <- t.sn + 1;
  t.commit_a <- sign_commit t (gen_commit t ~owner:`A ~bal_own:bal_a ~bal_other:bal_b);
  t.commit_b <- sign_commit t (gen_commit t ~owner:`B ~bal_own:bal_b ~bal_other:bal_a);
  (* Table 3 (Outpost row): 4 signs / 4 verifies per update *)
  t.ops <- Scheme_intf.ops_add ~signs:4 ~verifies:4 t.ops;
  old

(** Read the embedded chain values out of a commit transaction. *)
let embedded_values (commit : Tx.t) : (string * string) option =
  match List.nth_opt commit.Tx.outputs 2 with
  | Some { Tx.spk = Tx.Raw [ Script.Return; Push a; Push b ]; _ } ->
      Some (a, b)
  | _ -> None

(** Punish a revoked commit of ANY state j < sn: read the chain values
    of state sn-1 off the victim's latest commit (or off any on-chain
    commit newer than j), hash down to state j, and claim the
    cheater's balance with the derived key plus the static penalty
    key. *)
let punish (t : t) ~(victim : [ `A | `B ]) ~(published : Tx.t) : Tx.t option =
  let side = match victim with `A -> t.a | `B -> t.b in
  let cheater = match victim with `A -> t.b | `B -> t.a in
  let revoked = Scheme_intf.revoked_index published in
  if revoked < 0 || revoked >= t.sn then None
  else
    match embedded_values (match victim with `A -> t.commit_a | `B -> t.commit_b) with
    | None -> None
    | Some (value_a, value_b) ->
        let latest_embedded = t.sn - 1 in
        let v = match victim with `A -> value_b | `B -> value_a in
        let v_j = chain_down v ~from_state:latest_embedded ~to_state:revoked in
        let sk_rev = secret_of_value v_j in
        let script =
          balance_script t ~rev_pk:(Schnorr.public_key_of_secret sk_rev)
            ~penalty_pk:side.penalty.Keys.pk ~owner_pk:cheater.main.Keys.pk
        in
        let v_out = (List.nth published.Tx.outputs 0).Tx.value in
        let body =
          Tx.make ~inputs:[ Tx.input_of_outpoint (Tx.outpoint_of published 0) ]
            ~outputs:[ Scheme_intf.pay_to_pk ~value:v_out side.main.Keys.pk ] ()
        in
        let sig_rev = Sighash.sign sk_rev All body ~input_index:0 in
        let sig_pen = Sighash.sign side.penalty.Keys.sk All body ~input_index:0 in
        Some
          (Tx.with_witnesses body [ [ Tx.Data ""; Tx.Data sig_rev; Tx.Data sig_pen; Tx.Data "\001";
                  Tx.Wscript script ] ])

let commit_of (t : t) (who : [ `A | `B ]) : Tx.t =
  match who with `A -> t.commit_a | `B -> t.commit_b

let funding_outpoint (t : t) : Tx.outpoint = Tx.outpoint_of t.fund 0

(** The Outpost watchtower's storage: static penalty key + funding
    outpoint + the state counter — O(log n) bits. *)
let watchtower_bytes (t : t) : int =
  ignore t;
  (4 + Schnorr.public_key_size) + 36 + 8

(** Party storage: keys, seed and the latest commit pair — constant
    apart from the O(log n) counter. *)
let storage_bytes (t : t) ~(who : [ `A | `B ]) : int =
  let kp = 4 + Schnorr.public_key_size in
  let commit = commit_of t who in
  (2 * kp) + 16 + Tx.non_witness_size commit + Tx.witness_size commit

(* ------------------------------------------------------------------ *)
(* SCHEME instance.                                                    *)

module Scheme : Scheme_intf.SCHEME = struct
  module I = Scheme_intf

  let name = "Outpost"
  let has_watchtower = true

  type nonrec t = {
    env : I.env;
    ch : t;
    mutable revoked : Tx.t option;  (** A's first superseded commit *)
  }

  let open_channel (env : I.env) (cfg : I.config) =
    let ch =
      create ~rel_lock:cfg.rel_lock ~ledger:env.ledger ~rng:env.rng
        ~bal_a:cfg.bal_a ~bal_b:cfg.bal_b ()
    in
    Ok { env; ch; revoked = None }

  (* The reverse hash chain bounds the channel lifetime to n_max
     updates; callers recreate the channel when it is exhausted. *)
  let update s ~bal_a ~bal_b =
    if s.ch.sn >= n_max then
      I.fail ~scheme:name ~stage:"update" "lifetime exhausted (n_max updates)"
    else begin
      let old_a, _old_b = update s.ch ~bal_a ~bal_b in
      if s.revoked = None then s.revoked <- Some old_a;
      Ok ()
    end

  let sn s = s.ch.sn
  let funding s = funding_outpoint s.ch
  let party_bytes s = storage_bytes s.ch ~who:`A
  let watchtower_bytes s = Some (watchtower_bytes s.ch)

  let ops s = s.ch.ops

  let known_pubkeys s =
    let side_keys sd =
      Keys.enc sd.main.Keys.pk
      :: Keys.enc sd.penalty.Keys.pk
      :: List.init (s.ch.sn + 1) (fun j -> Keys.enc (rev_pk sd ~j))
    in
    side_keys s.ch.a @ side_keys s.ch.b

  (* Latest balances as recorded in A's latest commit outputs. *)
  let bal s =
    match (commit_of s.ch `A).Tx.outputs with
    | own :: other :: _ -> (own.Tx.value, other.Tx.value)
    | _ -> (0, 0)

  let collaborative_close s =
    let bal_a, bal_b = bal s in
    I.coop_close_2of2 s.env ~scheme:name ~outpoint:(funding s)
      ~outputs:
        [ I.pay_to_pk ~value:bal_a s.ch.a.main.Keys.pk;
          I.pay_to_pk ~value:bal_b s.ch.b.main.Keys.pk;
          (* the 1-satoshi data-output carrier is burned *)
          { Tx.value = 1; spk = Tx.Op_return } ]
      s.ch.a.main s.ch.b.main

  let dishonest_close s =
    match s.revoked with
    | None -> I.no_revoked_state ~scheme:name
    | Some old_commit ->
        I.dispute s.env ~scheme:name ~revoked_i:(I.revoked_index old_commit)
          ~published:old_commit
          ~punish:(fun () -> punish s.ch ~victim:`B ~published:old_commit)

  (* A publishes its latest commit and, after the CSV delay, sweeps
     its own balance output via the delayed owner branch. *)
  let force_close s =
    let commit = commit_of s.ch `A in
    I.unilateral s.env ~scheme:name ~commit ~wait:s.ch.rel_lock
      ~sweep:(fun () ->
        I.sweep_delayed
          ~script:
            (balance_script s.ch ~rev_pk:(rev_pk s.ch.a ~j:s.ch.sn)
               ~penalty_pk:s.ch.b.penalty.Keys.pk ~owner_pk:s.ch.a.main.Keys.pk)
          ~sk:s.ch.a.main.Keys.sk ~to_pk:s.ch.a.main.Keys.pk commit)
end
