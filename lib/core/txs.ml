(** Daric transaction generators (Appendix D subprocedures GenFund,
    GenCommit, GenSplit, GenRevoke, GenFinSplit), the Appendix-B output
    scripts, and the witness-completion helpers that turn floating
    transactions into postable ones. *)

module Tx = Daric_tx.Tx
module Sighash = Daric_tx.Sighash
module Script = Daric_script.Script

(* ------------------------------------------------------------------ *)
(* Scripts (Appendix B).                                               *)

(* Funding scripts, P2WPKH payouts and the transaction bodies below
   are rebuilt on the per-update hot path from a handful of ints —
   public keys are group elements, locks are heights — so they are
   memoized on exactly those ints (see {!Daric_util.Memo}). *)
let memo_max = 1 lsl 14

let funding_script_and_hash :
    Daric_crypto.Schnorr.public_key * Daric_crypto.Schnorr.public_key ->
    Script.t * string =
  Daric_util.Memo.make ~cap:memo_max (fun (pk_a, pk_b) ->
      let s = Script.multisig_2 (Keys.enc pk_a) (Keys.enc pk_b) in
      (s, Script.hash s))

(** Funding output: [2 <pkA> <pkB> 2 OP_CHECKMULTISIG] behind P2WSH. *)
let funding_script ~(pk_a : Daric_crypto.Schnorr.public_key)
    ~(pk_b : Daric_crypto.Schnorr.public_key) : Script.t =
  fst (funding_script_and_hash (pk_a, pk_b))

(** The P2WPKH payout condition of a public key; the hash160 of the
    33-byte encoding is memoized per key. *)
let p2wpkh_spk : Daric_crypto.Schnorr.public_key -> Tx.spk =
  Daric_util.Memo.make ~cap:memo_max (fun pk ->
      Tx.P2wpkh (Daric_crypto.Hash.hash160 (Keys.enc pk)))

(** Commit output script:
    [<S0+i> CLTV DROP
     IF    2 <rev1> <rev2> 2 CHECKMULTISIG          (revocation branch)
     ELSE  <T> CSV DROP 2 <spl1> <spl2> 2 CHECKMULTISIG  (split branch)
     ENDIF]
    157 bytes under the Appendix-H size conventions. *)
let commit_script ~(abs_lock : int) ~(rel_lock : int) ~rev_pk1 ~rev_pk2
    ~spl_pk1 ~spl_pk2 : Script.t =
  [ Script.Num abs_lock; Cltv; Drop; If; Small 2;
    Push (Keys.enc rev_pk1); Push (Keys.enc rev_pk2); Small 2;
    Checkmultisig; Else; Num rel_lock; Csv; Drop; Small 2;
    Push (Keys.enc spl_pk1); Push (Keys.enc spl_pk2); Small 2;
    Checkmultisig; Endif ]

(* ------------------------------------------------------------------ *)
(* Transaction bodies.                                                 *)

(** GenFund: funding transaction body spending the two parties' funding
    sources into the shared 2-of-2 output. *)
let gen_fund ~(tid_a : Tx.outpoint) ~(tid_b : Tx.outpoint) ~(cash : int)
    ~(pk_a : Daric_crypto.Schnorr.public_key)
    ~(pk_b : Daric_crypto.Schnorr.public_key) : Tx.t =
  Tx.make
    ~inputs:[ Tx.input_of_outpoint tid_a; Tx.input_of_outpoint tid_b ]
    ~outputs:
      [ { Tx.value = cash;
          spk = Tx.P2wsh (snd (funding_script_and_hash (pk_a, pk_b))) } ]
    ()

(* --- body sharing ---------------------------------------------------
   During an update both parties generate the same commit pair, split
   and revocation bodies from identical inputs. Memoizing the
   generators on exactly those inputs makes the two [Party.t] sides
   hold ONE heap copy of each body instead of two structurally-equal
   ones — and makes an N-update run reuse bodies across channels with
   identical parameters. *)

let commit_bodies :
    Tx.outpoint * int * Keys.pub * Keys.pub * int * int * int -> Tx.t * Tx.t =
  Daric_util.Memo.make ~cap:memo_max
    (fun (funding, value, (keys_a : Keys.pub), (keys_b : Keys.pub), s0, i, rel_lock) ->
      let mk rev_pk1 rev_pk2 =
        let script =
          commit_script ~abs_lock:(s0 + i) ~rel_lock ~rev_pk1 ~rev_pk2
            ~spl_pk1:keys_a.sp_pk ~spl_pk2:keys_b.sp_pk
        in
        (* The state index is encoded in the input's sequence field so a
           punisher can reconstruct the (P2WSH-hidden) commit script of a
           revoked commit without storing old states — Section 8,
           "Compatibility with P2WSH transactions". *)
        Tx.make
          ~inputs:[ Tx.input_of_outpoint ~sequence:i funding ]
          ~outputs:[ { Tx.value; spk = Tx.P2wsh (Script.hash script) } ]
          ()
      in
      (mk keys_a.rv_pk keys_b.rv_pk, mk keys_a.rv'_pk keys_b.rv'_pk))

(** GenCommit: the pair of state-i commit transaction bodies.
    A's commit carries the (rv_A, rv_B) revocation branch; B's carries
    (rv'_A, rv'_B). The absolute lock [s0 + i] orders states. *)
let gen_commit ~(funding : Tx.outpoint) ~(value : int) ~(keys_a : Keys.pub)
    ~(keys_b : Keys.pub) ~(s0 : int) ~(i : int) ~(rel_lock : int) : Tx.t * Tx.t
    =
  commit_bodies (funding, value, keys_a, keys_b, s0, i, rel_lock)

(** The script of a party's state-i commit output (needed to complete
    floating transactions that spend it). *)
let commit_script_of ~(role : Keys.role) ~(keys_a : Keys.pub)
    ~(keys_b : Keys.pub) ~(s0 : int) ~(i : int) ~(rel_lock : int) : Script.t =
  let rev_pk1, rev_pk2 =
    match role with
    | Keys.Alice -> (keys_a.Keys.rv_pk, keys_b.Keys.rv_pk)
    | Keys.Bob -> (keys_a.Keys.rv'_pk, keys_b.Keys.rv'_pk)
  in
  commit_script ~abs_lock:(s0 + i) ~rel_lock ~rev_pk1 ~rev_pk2
    ~spl_pk1:keys_a.Keys.sp_pk ~spl_pk2:keys_b.Keys.sp_pk

let split_bodies : Tx.output list * int * int -> Tx.t =
  Daric_util.Memo.make ~cap:memo_max (fun (theta, s0, i) ->
      Tx.make ~locktime:(s0 + i) ~inputs:[] ~outputs:theta ())

(** GenSplit: floating split transaction body for state i. Its
    nLockTime stores the state number (S0 + i); it carries no input. *)
let gen_split ~(theta : Tx.output list) ~(s0 : int) ~(i : int) : Tx.t =
  split_bodies (theta, s0, i)

let revoke_bodies :
    Daric_crypto.Schnorr.public_key * Daric_crypto.Schnorr.public_key * int
    * int * int ->
    Tx.t * Tx.t =
  Daric_util.Memo.make ~cap:memo_max (fun (pk_a, pk_b, cash, s0, revoked) ->
      let mk pk =
        Tx.make ~locktime:(s0 + revoked) ~inputs:[]
          ~outputs:[ { Tx.value = cash; spk = p2wpkh_spk pk } ]
          ()
      in
      (mk pk_a, mk pk_b))

(** GenRevoke: the pair of floating revocation transaction bodies
    revoking state [revoked]. nLockTime = S0 + revoked lets them spend
    the output of any commit with state index <= revoked, but of no
    later commit. The full channel funds go to the punishing party. *)
let gen_revoke ~(pk_a : Daric_crypto.Schnorr.public_key)
    ~(pk_b : Daric_crypto.Schnorr.public_key) ~(cash : int) ~(s0 : int)
    ~(revoked : int) : Tx.t * Tx.t =
  revoke_bodies (pk_a, pk_b, cash, s0, revoked)

(** GenFinSplit: the modified split transaction of a collaborative
    close — spends the funding output directly. *)
let gen_fin_split ~(funding : Tx.outpoint) ~(theta : Tx.output list) : Tx.t =
  Tx.make ~inputs:[ Tx.input_of_outpoint funding ] ~outputs:theta ()

(* ------------------------------------------------------------------ *)
(* Signing messages.                                                   *)

let funding_message (fund : Tx.t) : string = Sighash.message All fund ~input_index:0
let commit_message (commit : Tx.t) : string = Sighash.message All commit ~input_index:0

let split_message (split : Tx.t) : string =
  Sighash.message Anyprevout split ~input_index:0

let revoke_message (rv : Tx.t) : string = Sighash.message Anyprevout rv ~input_index:0

let fin_split_message (tx : Tx.t) : string = Sighash.message All tx ~input_index:0

(* ------------------------------------------------------------------ *)
(* Witness completion.                                                 *)

(** 2-of-2 multisig witness (dummy, sigs in pubkey order, script). *)
let multisig_witness ~(sig1 : string) ~(sig2 : string) (script : Script.t) :
    Tx.witness =
  [ Tx.Data ""; Tx.Data sig1; Tx.Data sig2; Tx.Wscript script ]

(** Complete a commit transaction with both funding signatures
    (sig order: A then B, matching the funding script). *)
let complete_commit (body : Tx.t) ~(sig_a : string) ~(sig_b : string)
    ~(pk_a : Daric_crypto.Schnorr.public_key)
    ~(pk_b : Daric_crypto.Schnorr.public_key) : Tx.t =
  Tx.with_witnesses body
    [ multisig_witness ~sig1:sig_a ~sig2:sig_b (funding_script ~pk_a ~pk_b) ]

(** Complete the funding transaction with the two parties' signatures
    over their respective P2WPKH funding sources. *)
let complete_fund (body : Tx.t) ~(sig_a : string)
    ~(pk_a : Daric_crypto.Schnorr.public_key) ~(sig_b : string)
    ~(pk_b : Daric_crypto.Schnorr.public_key) : Tx.t =
  Tx.with_witnesses body
    [ [ Tx.Data sig_a; Tx.Data (Keys.enc pk_a) ];
      [ Tx.Data sig_b; Tx.Data (Keys.enc pk_b) ] ]

(** Attach a published commit's output as the input of the floating
    split transaction and install its witness. The witness selects the
    split (ELSE) branch of the revealed commit script. *)
let complete_split (split : Tx.t) ~(commit_outpoint : Tx.outpoint)
    ~(commit_script : Script.t) ~(sig_a : string) ~(sig_b : string) : Tx.t =
  Tx.make ~locktime:split.Tx.locktime ~outputs:split.Tx.outputs
    ~inputs:[ Tx.input_of_outpoint commit_outpoint ]
    ~witnesses:
      [ [ Tx.Data ""; Tx.Data sig_a; Tx.Data sig_b; Tx.Data "";
          Tx.Wscript commit_script ] ]
    ()

(** Attach a published (revoked) commit's output as the input of the
    floating revocation transaction. The witness selects the revocation
    (IF) branch. *)
let complete_revocation (rv : Tx.t) ~(commit_outpoint : Tx.outpoint)
    ~(commit_script : Script.t) ~(sig1 : string) ~(sig2 : string) : Tx.t =
  Tx.make ~locktime:rv.Tx.locktime ~outputs:rv.Tx.outputs
    ~inputs:[ Tx.input_of_outpoint commit_outpoint ]
    ~witnesses:
      [ [ Tx.Data ""; Tx.Data sig1; Tx.Data sig2; Tx.Data "\001";
          Tx.Wscript commit_script ] ]
    ()

(** Punish a revoked commit (Section 4.4): read the spender's state
    index from its nSequence, rebuild [owner]'s hidden commit script
    for it and, when that script is the spender's one P2WSH output and
    the index is at most [revoked], bind the floating revocation
    [rev_body] to it with the (Alice, Bob) signatures. [None] for
    anything else: the latest state, the other owner's commit, a
    multi-input spend, an output that is not the commit script. *)
let punish_revoked ~(keys_a : Keys.pub) ~(keys_b : Keys.pub) ~(s0 : int)
    ~(rel_lock : int) ~(owner : Keys.role) ~(revoked : int) ~(rev_body : Tx.t)
    ~(sig_a : string) ~(sig_b : string) (spender : Tx.t) : Tx.t option =
  match (spender.Tx.inputs, spender.Tx.outputs) with
  | [ input ], [ { Tx.spk = Tx.P2wsh h; _ } ]
    when input.Tx.sequence >= 0 && input.Tx.sequence <= revoked ->
      let script =
        commit_script_of ~role:owner ~keys_a ~keys_b ~s0 ~i:input.Tx.sequence
          ~rel_lock
      in
      if String.equal h (Script.hash script) then
        Some
          (complete_revocation rev_body
             ~commit_outpoint:(Tx.outpoint_of spender 0)
             ~commit_script:script ~sig1:sig_a ~sig2:sig_b)
      else None
  | _ -> None

(** Complete the collaborative-close split with both signatures. *)
let complete_fin_split (body : Tx.t) ~(sig_a : string) ~(sig_b : string)
    ~(pk_a : Daric_crypto.Schnorr.public_key)
    ~(pk_b : Daric_crypto.Schnorr.public_key) : Tx.t =
  Tx.with_witnesses body
    [ multisig_witness ~sig1:sig_a ~sig2:sig_b (funding_script ~pk_a ~pk_b) ]

(** A simple channel state: two balance outputs paying the parties. *)
let balance_state ~(pk_a : Daric_crypto.Schnorr.public_key)
    ~(pk_b : Daric_crypto.Schnorr.public_key) ~(bal_a : int) ~(bal_b : int) :
    Tx.output list =
  [ { Tx.value = bal_a; spk = p2wpkh_spk pk_a };
    { Tx.value = bal_b; spk = p2wpkh_spk pk_b } ]
