(** N Daric channels on one shared ledger, built through the SCHEME
    registry's Daric wrapper: the system {!Scale}, {!Tower_sim} and
    {!Memprobe} measure. *)

val timed : (unit -> 'a) -> 'a * float
(** Result and wall-clock seconds (the monotonic clock) of a thunk. *)

val open_all :
  Daric_schemes.Scheme_intf.env -> prefix:string -> channels:int ->
  Daric_schemes.Daric_scheme.state array
(** Open channels [prefix ^ "0"] … in order. Channel [k] has party
    seed [1000 + 2k] and balances [500_000 ± (k mod 997)]. *)

val update_all : Daric_schemes.Daric_scheme.state array -> updates:int -> unit
(** [updates] off-chain updates on every channel, channel by channel;
    update [u] of channel [k] sets the balances to
    [500_000 ± ((k mod 997) + 13u)]. *)

val watch_all :
  Daric_schemes.Daric_scheme.state array -> who:string ->
  (Daric_core.Watchtower.record -> unit) -> unit
(** Hand every channel's latest watchtower record to [watch]; fails
    with ["<who>: no record after update"] for a channel that has none. *)
