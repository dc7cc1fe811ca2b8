(** Structured diagnostics for the static analyzer.

    Every finding — from the abstract script interpreter, the
    transaction-DAG linter, or the Daric closure-graph model — is a
    {!t}: which scheme, which transaction, which spend path, which
    rule fired, at what severity. The CLI [lint] subcommand and the
    [@lint] alias fail iff any {!Error}-severity diagnostic survives. *)

type severity = Info | Warning | Error

type rule =
  | Unbalanced_conditional  (** If/Notif nesting never closes *)
  | Unspendable_script      (** no spend path is satisfiable *)
  | Guaranteed_failure      (** a specific path always fails *)
  | Dead_branch             (** branch gated by a constant condition *)
  | Mixed_cltv_classes      (** height- and timestamp-class CLTV on one path *)
  | Data_carrier            (** OP_RETURN-led data output (informational) *)
  | Nonpositive_output      (** output with value <= 0 *)
  | Negative_fee            (** outputs exceed resolvable inputs *)
  | Value_leak              (** inputs exceed outputs — value burned as fee *)
  | Witness_mismatch        (** witness does not match the spent program *)
  | Cltv_unsatisfiable      (** spender nLockTime can never satisfy script *)
  | Locktime_regression     (** nLockTime not monotone in state number *)
  | Locktime_state_mismatch (** split nLockTime differs from commit CLTV *)
  | Timelock_ordering       (** revocation window not before spendability *)
  | Revocation_missing      (** stale commit without a covering revocation *)
  | Revocation_unsatisfiable(** revocation exists but cannot execute *)
  | Orphan_key              (** script key owned by no protocol party *)
  | Scenario_failure        (** lifecycle scenario itself failed *)

type t = {
  scheme : string;
  txid : string;  (** short hex txid, or [""] for scheme-level findings *)
  path : string;  (** branch combination, e.g. ["T"], ["FT"], or ["-"] *)
  rule : rule;
  severity : severity;
  detail : string;
}

val make :
  scheme:string -> ?txid:string -> ?path:string -> rule:rule ->
  severity:severity -> string -> t

val rule_name : rule -> string
val severity_name : severity -> string
val to_string : t -> string

val count : severity -> t list -> int

val sort : t list -> t list
(** Most severe first, then by scheme/txid/rule, deduplicated. *)

val short_txid : string -> string
(** First 8 hex chars of a txid, for display. *)
