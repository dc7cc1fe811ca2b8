(** Abstract stack-effect interpreter over {!Daric_script.Script.t}.

    The analyzer enumerates every If/Notif branch combination of a
    script (mirroring {!Daric_script.Interp}'s Else-toggle semantics,
    where repeated [Else] segments alternate) and symbolically executes
    each path. Witness items are materialized lazily: the [k]-th pop
    from an empty abstract stack becomes witness slot [k] — the [k]-th
    item from the top of the initial stack passed to [Interp.run].

    Per path the analyzer computes a three-valued verdict:
    - [`Sat]: a witness template (one {!slot} constraint per stack
      item) that should drive the concrete interpreter down this path
      to success; {!Witness.synthesize} turns it into actual bytes.
    - [`Unsat reason]: no witness can make this path succeed — the
      analyzer only claims this when it is certain (constant [Verify]
      failure, executed [Return], contradictory slot demands,
      conflicting CLTV classes, non-canonical constants where numbers
      are required).
    - [`Unknown why]: the path uses a feature the abstract domain does
      not track (witness-supplied multisig arity, signature checks on
      constants, equality between two witness items demanded false,
      ...). Soundness over completeness: never claim Sat or Unsat
      without certainty.

    Signature semantics follow the repo's oracle model (one signature
    string validates under exactly one public key), which both the
    production {!Daric_crypto.Sighash.check} and the differential-fuzz
    oracle satisfy. *)

module Script = Daric_script.Script
module Interp = Daric_script.Interp

type hash_fn = H160 | H256 | Sha | Ripemd

val apply_hash : hash_fn -> string -> string

(** Accumulated constraints on one witness slot. All present fields
    must hold simultaneously; {!Witness.synthesize} resolves them. *)
type slot = {
  exact : string option;           (** must equal this byte string *)
  not_exact : string list;         (** must differ from each of these *)
  truth : bool option;             (** [Some true] truthy, [Some false] falsy *)
  sig_for : string option;         (** valid signature for this encoded pk *)
  nonsig_for : string list;        (** not a valid signature for these pks *)
  preimage : (hash_fn * string) option;  (** hash-fn preimage of digest *)
}

type verdict = [ `Sat | `Unsat of string | `Unknown of string ]

type path = {
  taken : string;       (** branch decisions top-down, e.g. ["TF"]; ["-"] if none *)
  verdict : verdict;
  arity : int;          (** number of witness slots consumed *)
  slots : slot list;    (** length [arity]; index 0 = top of initial stack *)
  cltv : (bool * int) list;
      (** constant CLTV demands as [(is_timestamp_class, value)] *)
  csv : int;            (** largest constant CSV demand; 0 if none *)
  keys : string list;   (** constant pk operands checked on this path *)
  notes : string list;  (** human-readable oddities *)
}

type t = {
  paths : path list;
  parse_ok : bool;      (** false iff conditionals never balance *)
  data_carrier : bool;  (** script opens with [Return] *)
  used_keys : string list;  (** union of per-path [keys] *)
  diags : (Diag.rule * Diag.severity * string * string) list;
      (** script-level findings as [(rule, severity, path, detail)] *)
}

val analyze : Script.t -> t

val satisfiable : t -> bool
(** Some path is [`Sat] or [`Unknown] — i.e. the analyzer cannot rule
    the script unspendable. *)

val locktime_compatible : t -> int -> bool
(** [locktime_compatible a nlocktime] — some not-certainly-unsat path's
    CLTV demands are satisfied by a spender carrying [nlocktime]. *)
