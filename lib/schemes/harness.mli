(** Generic scenario engine running any {!Scheme_intf.SCHEME} through
    the common lifecycle with uniform instrumentation. *)

module I = Scheme_intf

type close = [ `None | `Collaborative | `Dishonest | `Force ]

type scenario = { updates : int; close : close }

type report = {
  scheme : string;
  updates_done : int;
  party_bytes : int;  (** at close time, after the updates *)
  watchtower_bytes : int option;
  total_ops : I.ops;  (** cumulative over the updates *)
  per_update_ops : I.ops;
  outcome : I.outcome option;  (** [None] iff the scenario closes with [`None] *)
  known_pubkeys : string list;  (** the channel's key inventory, after the close *)
}

val balance_at : I.config -> int -> int * int
(** Balance trajectory at update [k] (the historical Daric one). *)

val run :
  ?config:I.config -> env:I.env -> (module I.SCHEME) -> scenario ->
  (report, I.error) result

val run_fresh :
  ?delta:int -> ?config:I.config -> (module I.SCHEME) -> scenario ->
  (report, I.error) result
(** {!run} on a fresh ledger/RNG environment (the Table 1 seeding). *)
