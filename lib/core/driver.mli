(** Simulation driver: wires parties, the authenticated network and
    the ledger into the synchronous round structure of Appendix C.

    Per round: the ledger processes due postings; every honest party
    handles its delivered messages; honest parties and watchtowers run
    their end-of-round (Punish) logic. Corrupting a party freezes its
    honest logic — the test then plays the adversary with the party's
    recorded data. *)

module Ledger = Daric_chain.Ledger
module Tx = Daric_tx.Tx

type t

val create :
  ?ledger:Ledger.t -> ?net_log_cap:int -> ?delta:int -> ?seed:int -> unit -> t
(** When [ledger] is given the driver runs on that shared ledger (its
    Δ governs posting delays) instead of creating a private one;
    [delta] then has no effect. [net_log_cap] bounds
    the retained network traffic log (total counters are unaffected) —
    set it when simulating very many channels so memory stays flat. *)

val ledger : t -> Ledger.t
val round : t -> int

val add_party : t -> Party.t -> unit
val add_watchtower : t -> Watchtower.t -> unit

val corrupt : t -> string -> unit

val ctx : t -> string -> Party.ctx
(** Per-round capabilities for one party. *)

val adversary_post : ?delay:int -> t -> Tx.t -> unit
(** Post a transaction as the adversary, with a chosen delay. *)

val step : t -> unit
(** Advance one round. *)

val run : t -> int -> unit

val mint_to_key :
  t -> value:int -> pk:Daric_crypto.Schnorr.public_key -> Tx.outpoint

val open_channel :
  t -> id:string -> alice:Party.t -> bob:Party.t -> bal_a:int -> bal_b:int ->
  ?rel_lock:int -> ?s0:int -> unit -> unit
(** Mint both funding sources and INTRO both parties in the same
    round; the create phase completes over subsequent {!step}s. *)

val saw_event : Party.t -> (Party.event -> bool) -> bool
val channel_operational : Party.t -> id:string -> bool

val run_until_operational :
  ?max_rounds:int -> t -> id:string -> alice:Party.t -> bob:Party.t -> bool

val update_channel :
  ?max_rounds:int -> t -> id:string -> initiator:Party.t -> responder:Party.t ->
  theta:Tx.output list -> bool
(** Drive a full update to completion on both sides; [false] on
    timeout or rejection. *)

val bytes_sent : t -> int
(** Total protocol bytes exchanged (canonical wire encoding). *)

val messages_sent : t -> int
