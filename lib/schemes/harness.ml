(** Generic scenario engine: drive any {!Scheme_intf.SCHEME} through
    open → update×n → close and report uniform instrumentation.

    The balance trajectory mirrors the Daric driver's historical one —
    [bal_a - (k mod 1000) / bal_b + (k mod 1000)] at update k — so a
    single engine reproduces the exact channels the tables used to
    build by hand. Output sizes in this model are value-independent,
    which keeps the measured storage bytes stable across
    trajectories. *)

module I = Scheme_intf

type close = [ `None | `Collaborative | `Dishonest | `Force ]

type scenario = { updates : int; close : close }

(** Instrumentation snapshot taken after the updates, before the
    closure (storage at close time is what Table 1 reports). *)
type report = {
  scheme : string;
  updates_done : int;
  party_bytes : int;
  watchtower_bytes : int option;
  total_ops : I.ops;  (** cumulative, updates only *)
  per_update_ops : I.ops;
  outcome : I.outcome option;  (** [None] iff the scenario closes with [`None] *)
  known_pubkeys : string list;  (** the channel's key inventory, after the close *)
}

let balance_at (cfg : I.config) (k : int) : int * int =
  (cfg.bal_a - (k mod 1000), cfg.bal_b + (k mod 1000))

let run ?(config = I.default_config) ~(env : I.env)
    (module S : I.SCHEME) (sc : scenario) : (report, I.error) result =
  let ( let* ) = Result.bind in
  let* ch = S.open_channel env config in
  let ops0 = S.ops ch in
  let rec upd k =
    if k > sc.updates then Ok ()
    else
      let bal_a, bal_b = balance_at config k in
      let* () = S.update ch ~bal_a ~bal_b in
      upd (k + 1)
  in
  let* () = upd 1 in
  let total_ops = I.ops_sub (S.ops ch) ops0 in
  let report outcome =
    { scheme = S.name;
      updates_done = S.sn ch;
      party_bytes = S.party_bytes ch;
      watchtower_bytes = S.watchtower_bytes ch;
      total_ops;
      per_update_ops = I.ops_div total_ops sc.updates;
      outcome;
      known_pubkeys = S.known_pubkeys ch }
  in
  match sc.close with
  | `None -> Ok (report None)
  | `Collaborative ->
      let* o = S.collaborative_close ch in
      Ok (report (Some o))
  | `Dishonest ->
      let* o = S.dishonest_close ch in
      Ok (report (Some o))
  | `Force ->
      let* o = S.force_close ch in
      Ok (report (Some o))

(** [run] on a fresh environment (ledger Δ = [delta], RNG seed 7 — the
    historical Table 1 seeding). *)
let run_fresh ?(delta = 1) ?config (module S : I.SCHEME) (sc : scenario) :
    (report, I.error) result =
  run ?config ~env:(I.make_env ~delta ()) (module S) sc
