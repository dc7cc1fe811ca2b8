(** Transaction-DAG linter.

    Walks a ledger's accepted transactions (oldest first) as a DAG:
    inputs whose prevout txid resolves to an earlier accepted
    transaction are edges; unresolvable prevouts (coinbase mints) mark
    environment roots. Checks, per transaction:

    - every output value is positive;
    - value conservation: with all inputs resolvable, a negative fee
      is an error and a positive fee a warning (the models here
      conserve value exactly — any gap is a leak);
    - every P2WSH spend reveals a script hashing to the spent program,
      and the revealed script passes the abstract interpreter
      ({!Abstract.analyze}) with at least one satisfiable path whose
      CLTV demands the spender's nLockTime can meet;
    - every P2WPKH spend reveals a key hashing to the spent program;
    - no orphan keys: every constant [Checksig]/[Checkmultisig]
      operand and every P2WPKH owner belongs to [known_keys] (pass
      [[]] to disable ownership checks).

    Transactions spending [Op_return] outputs are the environment's
    funding idiom (recorded, never validated) and are exempt from
    witness checks. *)

module Tx = Daric_tx.Tx

val lint :
  scheme:string -> known_keys:string list -> (int * Tx.t) list -> Diag.t list
