(* The three workloads. Every one runs on simulated rounds with instant
   in-process delivery, in one process, with one durable tower guarding
   the channels, and every input comes from the seeded generator
   ([gen]): channel ids, party seeds, balances, the fraud schedule.

   - pay: ~5k channels opened in set-up; one client updates them in
     round-robin sweeps (closed loop). Loads the party/protocol path and
     the tower's write path; every ledger tick in the loop is empty.
   - fraud: ~10k channels with one update each; every round 100 of them
     replay a revoked commit (open loop in simulated rounds) and the
     tower punishes. Loads ledger validation and the tower's read/punish
     path; the party path is idle.
   - churn: a ring of 16 live channels; each step closes the oldest,
     unwatches it, opens a new one and gives it 4 watched updates
     (closed loop, one client). Loads open/close and keeps the live key
     set far below the Keyctx pool's capacity. *)

module Ledger = Daric_chain.Ledger
module Tx = Daric_tx.Tx
module Party = Daric_core.Party
module Watchtower = Daric_core.Watchtower
module Durable = Daric_core.Durable
module Keyctx = Daric_crypto.Keyctx
module Memtune = Daric_util.Memtune
module Rng = Daric_util.Rng

let pay_channels = 5_000
let fraud_channels = 10_000
let frauds_per_round = 100
let ring = 16
let churn_updates = 4
let poll_every = 64

(* Bounded closure for a punished fraud: the revoked commit lands one
   round after posting and the tower's revocation within 2Δ more
   (Δ = 1 here). *)
let delta = 1
let punish_rounds_bound = (2 * delta) + 1

(* ---- bookkeeping ------------------------------------------------------ *)

type tally = { mutable attempted : int; mutable failed : int; mutable why : string list }

let tally () = { attempted = 0; failed = 0; why = [] }

let check (t : tally) (ok : bool) (what : string) : unit =
  t.attempted <- t.attempted + 1;
  if not ok then begin
    t.failed <- t.failed + 1;
    if List.length t.why < 5 then t.why <- what :: t.why
  end

type gen = { rng : Rng.t; mutable next : int }

let gen (seed : int) = { rng = Rng.create ~seed; next = 0 }

let spec (g : gen) : Engine.spec =
  let k = g.next in
  g.next <- k + 1;
  let bal_a = 100_000 + Rng.int g.rng 900_000 in
  let bal_b = 100_000 + Rng.int g.rng 900_000 in
  { Engine.id = Printf.sprintf "ch%d-%06x" k (Rng.int g.rng 0xffffff);
    party_seed = Rng.int g.rng (1 lsl 30);
    bal_a;
    bal_b }

type sys = { ledger : Ledger.t; dtower : Durable.t }

let tower (s : sys) = Durable.tower s.dtower

let poll (s : sys) : unit =
  let snaps = Durable.snapshots_taken s.dtower in
  let t0 = Stats.now_ns () in
  Durable.end_of_round s.dtower ~round:(Ledger.height s.ledger) ~ledger:s.ledger
    ~post:(fun tx -> Ledger.post s.ledger tx ~delay:0);
  if !Trace.enabled then
    Trace.add
      (if Durable.snapshots_taken s.dtower > snaps then Trace.poll_snapshot
       else Trace.poll)
      (Stats.now_ns () - t0)

(* One watched update: Scheme.update, then the client's tower record,
   then the journaled watch. *)
let watched_update (s : sys) (g : gen) (c : Engine.chan) : bool =
  let cfg = (Party.chan_exn c.Engine.alice c.Engine.id).Party.cfg in
  let cash = Party.cash cfg in
  let bal_a = 1_000 + Rng.int g.rng (cash - 2_000) in
  Engine.update c ~bal_a ~bal_b:(cash - bal_a)
  &&
  match
    Trace.span Trace.record_for (fun () ->
        Watchtower.record_for c.Engine.alice ~id:c.Engine.id)
  with
  | None -> false
  | Some r ->
      let w0 = Durable.wal_bytes s.dtower in
      let ok = Trace.span Trace.watch (fun () -> Durable.watch s.dtower r) in
      Trace.count_wal (Durable.wal_bytes s.dtower - w0);
      ok

type lat = {
  opens : Stats.samples;
  updates : Stats.samples;
  closes : Stats.samples;
  ops : Stats.samples;  (** the workload's own operation *)
  recoveries : Stats.samples;
}

let lat () =
  { opens = Stats.samples (); updates = Stats.samples ();
    closes = Stats.samples (); ops = Stats.samples ();
    recoveries = Stats.samples () }

let open_one ~traced (s : sys) (g : gen) (l : lat) (t : tally) : Engine.chan =
  let sp = spec g in
  let t0 = Stats.now_ns () in
  let c = Engine.open_channel ~traced s.ledger sp in
  Stats.record l.opens t0;
  check t (Option.is_some c) ("open " ^ sp.Engine.id);
  match c with Some c -> c | None -> failwith ("channel failed to open: " ^ sp.Engine.id)

let timed_update (s : sys) (g : gen) (l : lat) (t : tally) (c : Engine.chan) :
    unit =
  let t0 = Stats.now_ns () in
  let ok = watched_update s g c in
  Stats.record l.updates t0;
  check t ok ("update " ^ c.Engine.id)

(* A fresh system of [n] channels, each opened then given [updates]
   watched updates, the tower polled every [poll_every] updates.
   Returns the system, its wall-clock set-up time and the quiesced
   live words it retains per channel. *)
let build ~traced ~(n : int) ~(updates : int) (g : gen) (l : lat) (t : tally) :
    sys * Engine.chan array * float * float =
  (* A fresh system starts with an empty key-context pool. *)
  Keyctx.clear ();
  Memtune.quiesce ();
  let live0 = (Gc.stat ()).Gc.live_words in
  let t0 = Stats.now_ns () in
  let s =
    { ledger = Ledger.create ~delta ();
      dtower = Durable.create ~wid:"tower" (Durable.memory_store ()) }
  in
  Trace.set_phase Trace.Open;
  let chans = Array.init n (fun _ -> open_one ~traced s g l t) in
  Trace.set_phase Trace.Update;
  let k = ref 0 in
  for _ = 1 to updates do
    Array.iter
      (fun c ->
        timed_update s g l t c;
        incr k;
        if !k mod poll_every = 0 then poll s)
      chans
  done;
  poll s;
  Trace.set_phase Trace.Other;
  let setup_s = Stats.seconds_since t0 in
  Memtune.quiesce ();
  let retained =
    float_of_int ((Gc.stat ()).Gc.live_words - live0) /. float_of_int (max n 1)
  in
  (s, chans, setup_s, retained)

(* ---- checks ----------------------------------------------------------- *)

(* Both parties agree on the state number and the tower's record
   revokes exactly the previous state. *)
let check_channels (s : sys) (chans : Engine.chan array) (t : tally) : unit =
  Array.iter
    (fun (c : Engine.chan) ->
      let sa = Engine.sn c.Engine.alice c.Engine.id in
      let ok =
        sa = Engine.sn c.Engine.bob c.Engine.id
        &&
        match Watchtower.find_record (tower s) c.Engine.id with
        | Some r -> r.Watchtower.revoked = sa - 1
        | None -> false
      in
      check t ok ("state/record mismatch on " ^ c.Engine.id))
    chans

let same_tower (a : Watchtower.t) (b : Watchtower.t) : bool =
  Watchtower.guarded_count a = Watchtower.guarded_count b
  && Watchtower.storage_bytes a = Watchtower.storage_bytes b
  && Watchtower.fold_records a
       (fun r ok ->
         ok
         &&
         match Watchtower.find_record b r.Watchtower.channel_id with
         | Some r' -> r'.Watchtower.revoked = r.Watchtower.revoked
         | None -> false)
       true

(* Crash the tower (keep only its store) and time Durable.recover,
   repeated at least [at_least] times and until [budget] seconds (at
   most 40); the recovered tower must equal the live one. The crash
   point is fixed relative to the snapshot cadence, so every run
   recovers the same amount of work: a fresh snapshot, then clients
   re-send [resent] current records (cycling over the channels), which
   the WAL journals. Returns the WAL records replayed. *)
let resent = 256

let recovery ~(at_least : int) ~(budget : float) (s : sys) (chans : Engine.chan array)
    (l : lat) (t : tally) : int =
  Durable.snapshot s.dtower;
  for i = 0 to resent - 1 do
    let c = chans.(i mod Array.length chans) in
    match Watchtower.find_record (tower s) c.Engine.id with
    | Some r -> check t (Durable.watch s.dtower r) ("re-watch " ^ c.Engine.id)
    | None -> check t false ("no record to re-send for " ^ c.Engine.id)
  done;
  let store = Durable.store s.dtower in
  let replayed = ref 0 and reps = ref 0 in
  let t_start = Stats.now_ns () in
  while !reps < at_least || (Stats.seconds_since t_start < budget && !reps < 40) do
    (* each recovery starts on a finished major cycle, so it pays for
       its own collection work only *)
    Memtune.quiesce ();
    Stats.probe_burst ();
    let t0 = Stats.now_ns () in
    let r = Durable.recover ~wid:"tower" store in
    Stats.record l.recoveries t0;
    Stats.probe_burst ();
    (match r with
    | Ok r ->
        if !reps = 0 then begin
          replayed := r.Durable.replayed;
          check t (same_tower (tower s) (Durable.tower r.Durable.t))
            "recovered tower differs from the live tower"
        end
    | Error e ->
        check t false ("recovery failed: " ^ Daric_core.Persist.error_to_string e));
    incr reps
  done;
  !replayed

(* The state the traced and untraced runs must agree on. *)
let fingerprint (s : sys) (chans : Engine.chan array) (closed : string list) :
    string list =
  let tw = tower s in
  [ Printf.sprintf "height=%d accepted=%d" (Ledger.height s.ledger)
      (Ledger.accepted_count s.ledger);
    Printf.sprintf "guarded=%d storage=%d" (Watchtower.guarded_count tw)
      (Watchtower.storage_bytes tw);
    "punished=" ^ String.concat "," (List.sort compare (Watchtower.punished tw)) ]
  @ List.rev closed
  @ Array.to_list
      (Array.map
         (fun (c : Engine.chan) ->
           Engine.fingerprint c ^ "|"
           ^
           match Watchtower.find_record tw c.Engine.id with
           | Some r -> Watchtower.encode_record r
           | None -> "-")
         chans)

(* ---- results ---------------------------------------------------------- *)

type mode = Timed of float | Fixed

type result = {
  tally : tally;
  setup_s : float list;
  retained : float;  (** words per channel the last set-up retains *)
  lat : lat;
  ops_done : int;
  ops_seconds : float;
  meter : Stats.meter;  (** completions per window of the loop *)
  replayed : int;
  tower_bytes_per_channel : float;
  pinned : int;  (** Keyctx pins at the end of the loop *)
  tables : int;
  fp : string list;  (** end state, for the traced/untraced differential *)
  domain_fp : string list;  (** what must not depend on the domain count *)
  extra : (string * float * string) list;  (** workload-specific report *)
}

let tower_bytes_per_channel (s : sys) =
  float_of_int (Watchtower.storage_bytes (tower s))
  /. float_of_int (max 1 (Watchtower.guarded_count (tower s)))

let until (mode : mode) ~(fixed : int) : int -> int -> bool =
  match mode with
  | Timed secs ->
      let ns = int_of_float (secs *. 1e9) in
      fun t0 _ -> Stats.now_ns () - t0 < ns
  | Fixed -> fun _ i -> i < fixed

let repeat_setup (mode : mode) ~(timed : int) = match mode with Timed _ -> timed | Fixed -> 1

(* [setups] fresh systems, each followed by 0.2 s of recoveries; the
   last one is kept, with the words it retains. *)
let set_up ~traced ~(setups : int) ~(n : int) ~(updates : int) (g : gen)
    (l : lat) (t : tally) =
  let times = ref [] and retained = ref 0. in
  let replayed = ref 0 and last = ref None in
  for _ = 1 to setups do
    last := None;
    let s, chans, dt, words = build ~traced ~n ~updates g l t in
    replayed := recovery ~at_least:5 ~budget:0.2 s chans l t;
    times := dt :: !times;
    retained := words;
    last := Some (s, chans)
  done;
  let s, chans = Option.get !last in
  (s, chans, !times, !retained, !replayed)

(* ---- pay -------------------------------------------------------------- *)

(* A crash and [reps] recoveries inside a loop, outside its timed work
   and its trace phases, so recovery samples spread over the whole
   loop. *)
let recover_in_loop ~(reps : int) (s : sys) (chans : Engine.chan array) (l : lat)
    (t : tally) (m : Stats.meter) : unit =
  let phase = !Trace.cur in
  Trace.set_phase Trace.Other;
  ignore (recovery ~at_least:reps ~budget:0. s chans l t);
  Trace.set_phase (List.nth Trace.phases phase);
  Stats.restart m

(* pay recovers every [recover_every] updates, churn every
   [churn_recover_every] lifecycles: each about every 0.3-1 s. *)
let recover_every = 8_192
let churn_recover_every = 512

let pay ~traced ~(mode : mode) (seed : int) : result =
  let g = gen seed and l = lat () and t = tally () in
  let s, chans, setups, retained, replayed =
    set_up ~traced ~setups:(repeat_setup mode ~timed:3) ~n:pay_channels
      ~updates:1 g l t
  in
  let n = Array.length chans in
  let go = until mode ~fixed:(2 * n) in
  Trace.set_phase Trace.Update;
  let t0 = Stats.now_ns () in
  let m = Stats.meter () in
  let i = ref 0 in
  while go t0 !i do
    let u0 = Stats.now_ns () in
    let c = chans.(!i mod n) in
    let ok = watched_update s g c in
    let u1 = Stats.now_ns () in
    Stats.record_at l.ops ~at:u1 (u1 - u0);
    Stats.record_at l.updates ~at:u1 (u1 - u0);
    check t ok ("update " ^ c.Engine.id);
    incr i;
    if !i mod poll_every = 0 then poll s;
    Stats.completed m;
    if !i mod recover_every = 0 then recover_in_loop ~reps:3 s chans l t m
  done;
  let ops_seconds = Stats.seconds_since t0 in
  Trace.set_phase Trace.Other;
  let ks = Keyctx.stats () in
  check_channels s chans t;
  { tally = t;
    setup_s = setups;
    retained;
    lat = l;
    ops_done = !i;
    ops_seconds;
    meter = m;
    replayed;
    tower_bytes_per_channel = tower_bytes_per_channel s;
    pinned = ks.Keyctx.pinned;
    tables = ks.Keyctx.tables;
    fp = fingerprint s chans [];
    domain_fp = [];
    extra = [] }

(* ---- fraud ------------------------------------------------------------ *)

type storm = {
  punished : int;
  seconds : float;
  rounds_max : int;
  rejected : int;
}

(* Replay a revoked commit on every channel, [frauds_per_round] per
   round in seeded order; tick the ledger and poll the tower each round.
   A fraud's latency runs from its posting (the round start) to the end
   of the tick that records the tower's revocation. *)
let storm (s : sys) (chans : Engine.chan array) (g : gen) (l : lat) (t : tally)
    (m : Stats.meter) : storm =
  let n = Array.length chans in
  let order = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = Rng.int g.rng (i + 1) in
    let x = order.(i) in
    order.(i) <- order.(j);
    order.(j) <- x
  done;
  Memtune.quiesce ();
  Trace.set_phase Trace.Storm;
  let pending : (string, int * int) Hashtbl.t = Hashtbl.create 256 in
  let next = ref 0 and rounds = ref 0 and punished = ref 0 in
  let rounds_max = ref 0 and rejected = ref 0 in
  let t0 = Stats.now_ns () in
  Stats.restart m;
  while (!next < n || Hashtbl.length pending > 0) && !rounds < (n / frauds_per_round) + 10
  do
    let posted = Stats.now_ns () and h0 = Ledger.height s.ledger in
    for _ = 1 to min frauds_per_round (n - !next) do
      let c = chans.(order.(!next)) in
      incr next;
      Trace.span Trace.adversary (fun () -> Engine.publish_revoked c);
      Hashtbl.replace pending (Tx.txid c.Engine.old_commit) (posted, h0)
    done;
    let evs = Trace.span Trace.tick (fun () -> Ledger.tick s.ledger) in
    if !Trace.enabled then Trace.count_due (List.length evs);
    let now = Stats.now_ns () and h = Ledger.height s.ledger in
    let before = !punished in
    List.iter
      (function
        | Ledger.Accepted tx -> (
            match tx.Tx.inputs with
            | { Tx.prevout = { Tx.txid; vout = 0 }; _ } :: _ -> (
                match Hashtbl.find_opt pending txid with
                | Some (p, hp) ->
                    Hashtbl.remove pending txid;
                    Stats.record_at l.ops ~at:now (now - p);
                    rounds_max := max !rounds_max (h - hp);
                    incr punished
                | None -> ())
            | _ -> ())
        | Ledger.Rejected _ -> incr rejected)
      evs;
    Stats.completed ~k:(!punished - before) m;
    poll s;
    incr rounds
  done;
  let seconds = Stats.seconds_since t0 in
  Trace.set_phase Trace.Other;
  Array.iter
    (fun (c : Engine.chan) ->
      let ok =
        (not (Hashtbl.mem pending (Tx.txid c.Engine.old_commit)))
        && Watchtower.punished_mem (tower s) c.Engine.id
      in
      check t ok ("fraud not punished on " ^ c.Engine.id))
    chans;
  check t (!rounds_max <= punish_rounds_bound)
    (Printf.sprintf "punishment took %d rounds (bound %d)" !rounds_max
       punish_rounds_bound);
  { punished = !punished; seconds; rounds_max = !rounds_max; rejected = !rejected }

let fraud ~traced ~(mode : mode) (seed : int) : result =
  let g = gen seed and l = lat () and t = tally () in
  let setups = ref [] and retained = ref 0. in
  let punished = ref 0 and seconds = ref 0. and rounds_max = ref 0 in
  let rejected = ref 0 and replayed = ref 0 and bytes = ref 0. in
  let last = ref None and pinned = ref 0 and tables = ref 0 in
  let cycles = ref 0 in
  let m = Stats.meter () in
  (* A cycle takes about 5 s, so [secs] sets a cycle count, the same in
     every run: the last cycle's figures (retained words) then always
     come from the same point of the run. *)
  let more () =
    match mode with
    | Fixed -> !cycles < 1
    | Timed secs -> !cycles < max 2 (int_of_float (secs /. 5.))
  in
  while more () do
    last := None;
    let s, chans, dt, words =
      build ~traced ~n:fraud_channels ~updates:1 g l t
    in
    setups := dt :: !setups;
    retained := words;
    bytes := tower_bytes_per_channel s;
    replayed := recovery ~at_least:5 ~budget:0.5 s chans l t;
    let st = storm s chans g l t m in
    let ks = Keyctx.stats () in
    pinned := ks.Keyctx.pinned;
    tables := ks.Keyctx.tables;
    punished := !punished + st.punished;
    seconds := !seconds +. st.seconds;
    rounds_max := max !rounds_max st.rounds_max;
    rejected := !rejected + st.rejected;
    last := Some (s, chans);
    incr cycles
  done;
  let s, chans = Option.get !last in
  let fp = fingerprint s chans [] in
  { tally = t;
    setup_s = !setups;
    retained = !retained;
    lat = l;
    ops_done = !punished;
    ops_seconds = !seconds;
    meter = m;
    replayed = !replayed;
    tower_bytes_per_channel = !bytes;
    pinned = !pinned;
    tables = !tables;
    fp;
    domain_fp = (match fp with a :: _ :: p :: _ -> [ a; p ] | _ -> fp);
    extra =
      [ ("punish_rounds_max", float_of_int !rounds_max, "rounds");
        ("punish_rounds_bound", float_of_int punish_rounds_bound, "rounds");
        ("rejected_txs", float_of_int !rejected, "count") ] }

(* ---- churn ------------------------------------------------------------ *)

let churn ~traced ~(mode : mode) (seed : int) : result =
  let g = gen seed and l = lat () and t = tally () in
  let s, chans, setups, retained, replayed =
    set_up ~traced ~setups:(repeat_setup mode ~timed:25) ~n:ring
      ~updates:churn_updates g l t
  in
  let pinned0 = (Keyctx.stats ()).Keyctx.pinned in
  let closed = ref [] in
  let go = until mode ~fixed:2_000 in
  let head = ref 0 and i = ref 0 in
  let t0 = Stats.now_ns () in
  let m = Stats.meter () in
  while go t0 !i do
    let l0 = Stats.now_ns () in
    let old = chans.(!head) in
    Trace.set_phase Trace.Close;
    let c0 = Stats.now_ns () in
    let ok = Engine.close old in
    Stats.record l.closes c0;
    check t ok ("close " ^ old.Engine.id);
    Trace.span Trace.unwatch (fun () ->
        Durable.unwatch s.dtower ~channel_id:old.Engine.id);
    closed := Engine.fingerprint old :: !closed;
    Trace.set_phase Trace.Open;
    let c = open_one ~traced s g l t in
    Trace.set_phase Trace.Update;
    for _ = 1 to churn_updates do
      timed_update s g l t c
    done;
    poll s;
    Stats.record l.ops l0;
    chans.(!head) <- c;
    head := (!head + 1) mod ring;
    check t (Watchtower.guarded_count (tower s) = ring) "guarded count drifted";
    incr i;
    Stats.completed m;
    if !i mod churn_recover_every = 0 then recover_in_loop ~reps:5 s chans l t m
  done;
  let ops_seconds = Stats.seconds_since t0 in
  Trace.set_phase Trace.Other;
  let ks = Keyctx.stats () in
  check t (ks.Keyctx.pinned = pinned0)
    (Printf.sprintf "Keyctx pins unbalanced: %d after set-up, %d at the end"
       pinned0 ks.Keyctx.pinned);
  check_channels s chans t;
  { tally = t;
    setup_s = setups;
    retained;
    lat = l;
    ops_done = !i;
    ops_seconds;
    meter = m;
    replayed;
    tower_bytes_per_channel = tower_bytes_per_channel s;
    pinned = ks.Keyctx.pinned;
    tables = ks.Keyctx.tables;
    fp = fingerprint s chans !closed;
    domain_fp = [];
    extra = [] }

let run (name : string) : (traced:bool -> mode:mode -> int -> result) option =
  match name with
  | "pay" -> Some pay
  | "fraud" -> Some fraud
  | "churn" -> Some churn
  | _ -> None
