(** N-tower replication: R independent {!Durable} towers guarding the
    same channel set, each with its own store, polled against the same
    ledger spent-log window every round.

    Faults are injected per (round, replica): [`Down] kills the
    replica's in-RAM state (the store survives; it recovers from
    snapshot + WAL at its next [`Up] round and catches up from its
    restored cursor), [`Omit] models a tower that is up but skips the
    poll (its cursor does not advance, so nothing is lost — only
    delayed). Because every replica holds the full O(1)-per-channel
    record set and punishment is idempotent on chain (duplicate
    revocation posts are rejected as already-spent/duplicate txid),
    any one honest replica suffices for every fraud to be punished —
    the Brick/fail-safe-watchtower replication argument, which the
    scorecard makes measurable per tower. *)

module Ledger = Daric_chain.Ledger
module Tx = Daric_tx.Tx

type fault = [ `Up | `Down | `Omit ]

type replica = {
  idx : int;
  rstore : Durable.store;
  mutable state : Durable.t option;  (** [None] while crashed *)
  mutable rounds_served : int;
  mutable rounds_down : int;
  mutable omissions : int;
  mutable recoveries : int;
  mutable missed_watches : int;
      (** watch calls that arrived while this replica was down *)
}

type t = {
  wid : string;
  snapshot_every : int;
  replicas : replica array;
  faults : round:int -> replica:int -> fault;
}

let no_faults ~round:_ ~replica:_ = `Up

let create ?(snapshot_every = 16) ?(faults = no_faults) ~(wid : string)
    ?(mk_store = fun (_ : int) -> Durable.memory_store ())
    (n : int) : t =
  if n < 1 then invalid_arg "Towerset.create: need at least one replica";
  { wid;
    snapshot_every;
    faults;
    replicas =
      Array.init n (fun idx ->
          let rstore = mk_store idx in
          { idx;
            rstore;
            state =
              Some
                (Durable.create ~snapshot_every
                   ~wid:(Printf.sprintf "%s-%d" wid idx)
                   rstore);
            rounds_served = 0;
            rounds_down = 0;
            omissions = 0;
            recoveries = 0;
            missed_watches = 0 })
  }

let revive (t : t) (r : replica) : Durable.t =
  match r.state with
  | Some d -> d
  | None -> (
      match
        Durable.recover ~snapshot_every:t.snapshot_every
          ~wid:(Printf.sprintf "%s-%d" t.wid r.idx)
          r.rstore
      with
      | Ok rec_ ->
          r.state <- Some rec_.Durable.t;
          r.recoveries <- r.recoveries + 1;
          rec_.Durable.t
      | Error e ->
          failwith
            (Printf.sprintf "towerset: replica %d store corrupt: %s" r.idx
               (Persist.error_to_string e)))

(** Fan a watch to every live replica. Returns [true] iff at least one
    replica accepted and journaled the record; replicas that are down
    miss it (counted in the scorecard) — exactly the window a client
    closes by re-sending its record each update. *)
let watch (t : t) ~(round : int) (r : Watchtower.record) : bool =
  Array.fold_left
    (fun acc rep ->
      match t.faults ~round ~replica:rep.idx with
      | `Down ->
          rep.state <- None;
          rep.missed_watches <- rep.missed_watches + 1;
          acc
      | `Up | `Omit -> Durable.watch (revive t rep) r || acc)
    false t.replicas

let unwatch (t : t) ~(round : int) ~(channel_id : string) : unit =
  Array.iter
    (fun rep ->
      match t.faults ~round ~replica:rep.idx with
      | `Down -> rep.state <- None
      | `Up | `Omit -> Durable.unwatch (revive t rep) ~channel_id)
    t.replicas

(** One round: every replica consults the fault schedule, then either
    loses its RAM ([`Down]), skips the poll ([`Omit]) or recovers if
    needed and monitors the shared spent-log window ([`Up]). *)
let end_of_round (t : t) ~(round : int) ~(ledger : Ledger.t)
    ~(post : Tx.t -> unit) : unit =
  Array.iter
    (fun rep ->
      match t.faults ~round ~replica:rep.idx with
      | `Down ->
          rep.state <- None;
          rep.rounds_down <- rep.rounds_down + 1
      | `Omit -> rep.omissions <- rep.omissions + 1
      | `Up ->
          Durable.end_of_round (revive t rep) ~round ~ledger ~post;
          rep.rounds_served <- rep.rounds_served + 1)
    t.replicas

(** Channels punished by at least one replica (union, no duplicates,
    stable order). *)
let punished (t : t) : string list =
  let seen = Hashtbl.create 16 in
  Array.fold_left
    (fun acc rep ->
      match rep.state with
      | None -> acc
      | Some d ->
          List.fold_left
            (fun acc cid ->
              if Hashtbl.mem seen cid then acc
              else begin
                Hashtbl.add seen cid ();
                cid :: acc
              end)
            acc
            (List.rev (Watchtower.punished (Durable.tower d))))
    [] t.replicas
  |> List.rev

(* ---- per-tower liveness / accountability scorecard ---------------- *)

type score = {
  s_idx : int;
  s_alive : bool;
  s_guarded : int;
  s_rounds_served : int;
  s_rounds_down : int;
  s_omissions : int;
  s_recoveries : int;
  s_missed_watches : int;
  s_punished : int;
  s_storage_bytes : int;
  s_wal_bytes : int;
  s_snapshots : int;
  s_liveness : float;  (** rounds served / rounds scheduled *)
}

let scorecard (t : t) : score list =
  Array.to_list
    (Array.map
       (fun rep ->
         let guarded, punished, storage, walb, snaps =
           match rep.state with
           | None -> (0, 0, 0, 0, 0)
           | Some d ->
               let tw = Durable.tower d in
               ( Watchtower.guarded_count tw,
                 List.length (Watchtower.punished tw),
                 Watchtower.storage_bytes tw,
                 Durable.wal_size d,
                 Durable.snapshots_taken d )
         in
         let scheduled =
           rep.rounds_served + rep.rounds_down + rep.omissions
         in
         { s_idx = rep.idx;
           s_alive = rep.state <> None;
           s_guarded = guarded;
           s_rounds_served = rep.rounds_served;
           s_rounds_down = rep.rounds_down;
           s_omissions = rep.omissions;
           s_recoveries = rep.recoveries;
           s_missed_watches = rep.missed_watches;
           s_punished = punished;
           s_storage_bytes = storage;
           s_wal_bytes = walb;
           s_snapshots = snaps;
           s_liveness =
             (if scheduled = 0 then 1.0
              else float_of_int rep.rounds_served /. float_of_int scheduled)
         })
       t.replicas)

let pp_scorecard ppf (scores : score list) =
  Fmt.pf ppf "%-6s %-6s %-8s %-7s %-6s %-6s %-5s %-8s %-9s %-9s %-5s@."
    "tower" "alive" "guarded" "served" "down" "omit" "recov" "punished"
    "bytes" "wal" "live%";
  List.iter
    (fun s ->
      Fmt.pf ppf "%-6d %-6b %-8d %-7d %-6d %-6d %-5d %-8d %-9d %-9d %.0f@."
        s.s_idx s.s_alive s.s_guarded s.s_rounds_served s.s_rounds_down
        s.s_omissions s.s_recoveries s.s_punished s.s_storage_bytes
        s.s_wal_bytes (100. *. s.s_liveness))
    scores
