(* Benchmark entry point:
     main.exe --workload pay|fraud|churn --seed N --seconds S --trace 0|1

   --trace 0 measures the end-to-end metrics for S seconds on the
   library's own round loop. --trace 1 runs a fixed amount of the same
   workload from the same seed untraced, traced and untraced again,
   checks that the traced run reaches the untraced state, and reports
   per-layer metrics. The last line of standard output is the JSON
   result; the process exits 1 when a correctness check failed. See
   METRICS.md. *)

module W = Workloads
module Wire = Daric_core.Wire

type metric = string * float * string

let us ns = ns /. 1e3

let num (v : float) : string =
  if not (Float.is_finite v) then "0"
  else if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let print_result ~correct ~attempted ~failed (ms : metric list) : unit =
  List.iter (fun (n, v, u) -> Printf.printf "# %-34s %14.4f %s\n" n v u) ms;
  let body =
    String.concat ", "
      (List.map
         (fun (n, v, u) -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" n (num v) u)
         ms)
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed body

let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b
let fratio a b = if b = 0. then 0. else a /. b

(* ---- end to end ------------------------------------------------------- *)

let end_to_end (workload : string) (r : W.result) : metric list =
  let l = r.W.lat in
  let h = Stats.levels () in
  (* samples taken on the fastest host, and all samples *)
  let q s p = us (Stats.quiet_quantile h s p) in
  let all s p = us (Stats.quantile s p) in
  let rate = Stats.quiet_rate h r.W.meter in
  let failed_share = ratio r.W.tally.W.failed (max 1 r.W.tally.W.attempted) in
  (* The same figures under the names each workload's users know them
     by, for the human-readable report only. *)
  let named =
    match workload with
    | "pay" ->
        [ ("update_rate", rate, "1/s"); ("update_p50_us", q l.W.ops 0.5, "us");
          ("update_p99_us", q l.W.ops 0.99, "us") ]
    | "fraud" ->
        [ ("punish_rate", rate, "1/s");
          ("punish_p50_ms", q l.W.ops 0.5 /. 1e3, "ms") ]
    | _ ->
        [ ("lifecycle_rate", rate, "1/s"); ("close_p50_us", q l.W.closes 0.5, "us") ]
  in
  let known = List.filter Float.is_finite (Array.to_list h.Stats.level) in
  let fast = List.filter (fun v -> v <= Stats.fast_margin *. h.Stats.fastest) known in
  List.iter
    (fun (n, v, u) -> Printf.printf "# %s %-24s %14.4f %s\n" workload n v u)
    (named @ r.W.extra
    @ [ ("failed_share", failed_share, "share");
        ("op_p99_us", q l.W.ops 0.99, "us");
        ("host.fastest_probe_ns", h.Stats.fastest, "ns");
        ("host.median_probe_ns", Stats.median_floats known, "ns");
        ("host.fast_window_share", ratio (List.length fast) (List.length known), "share");
        ("all.op_rate", fratio (float_of_int r.W.ops_done) r.W.ops_seconds, "1/s");
        ("all.op_p50_us", all l.W.ops 0.5, "us");
        ("all.op_p99_us", all l.W.ops 0.99, "us");
        ("all.op_p999_us", all l.W.ops 0.999, "us");
        ("all.recovery_ms", all l.W.recoveries 0.5 /. 1e3, "ms");
        ("samples.op", float_of_int (Stats.count l.W.ops), "count");
        ("samples.update", float_of_int (Stats.count l.W.updates), "count");
        ("samples.open", float_of_int (Stats.count l.W.opens), "count");
        ("samples.recovery", float_of_int (Stats.count l.W.recoveries), "count") ]);
  [ ("setup_s", Stats.median_floats r.W.setup_s, "s");
    ("op_rate", rate, "1/s");
    ("op_p50_us", q l.W.ops 0.5, "us");
    ("update_p50_us", q l.W.updates 0.5, "us");
    ("open_p50_us", q l.W.opens 0.5, "us");
    ("recovery_ms", q l.W.recoveries 0.5 /. 1e3, "ms");
    ("tower_bytes_per_channel", r.W.tower_bytes_per_channel, "B");
    ("retained_words_per_channel", r.W.retained, "words") ]

(* ---- per layer --------------------------------------------------------- *)

(* The phases whose ledger ticks and tower polls characterise each
   workload's loop. *)
let main_phases = function
  | "pay" -> [ Trace.Update ]
  | "fraud" -> [ Trace.Storm ]
  | _ -> [ Trace.Open; Trace.Update; Trace.Close ]

let active = [ Trace.Open; Trace.Update; Trace.Close; Trace.Storm ]

let mismatches (a : string list) (b : string list) : int =
  let rec go n a b =
    match (a, b) with
    | [], [] -> n
    | x :: a, y :: b -> go (if String.equal x y then n else n + 1) a b
    | rest, [] | [], rest -> n + List.length rest
  in
  go 0 a b

(* Encode/decode every captured Update-phase message; all must
   round-trip. *)
let wire_figures () : float * float * bool =
  let msgs = Array.of_list !Trace.captured in
  let n = Array.length msgs in
  let bytes = Array.fold_left (fun a m -> a + Wire.size m) 0 msgs in
  let ok =
    Array.for_all
      (fun m ->
        let e = Wire.encode m in
        match Wire.decode e with Some m' -> String.equal (Wire.encode m') e | None -> false)
      msgs
  in
  let rt =
    if n = 0 then 0.
    else
      Stats.ns_per_op ~reps:5 ~n (fun _ ->
          Array.iter (fun m -> ignore (Wire.decode (Wire.encode m))) msgs)
  in
  (ratio bytes (max n 1), rt, ok)

(* Per-layer figures from the traced run now held in [Trace]. *)
let traced_layers (workload : string) (micro : (string * float) list) :
    metric list * bool =
  let upd = [ Trace.Update ] in
  let main = main_phases workload in
  let n_upd = max 1 (Trace.updates_in upd) in
  let per_update ns = us (float_of_int ns) /. float_of_int n_upd in
  let per_upd counts = ratio (Trace.sum_phases upd (fun i -> counts.(i))) n_upd in
  let mean_us ps slot =
    us (ratio (Trace.slot_ns ps slot) (Trace.slot_calls ps slot))
  in
  let kind_slots = List.init (Array.length Trace.kinds) (fun i -> Trace.handle_base + i) in
  let handle_ns = List.fold_left (fun a s -> a + Trace.slot_ns upd s) 0 kind_slots in
  (* Close messages occur only on churn, so they get no entry of their
     own; they still count in party.handle_us there. *)
  let kind_metrics =
    List.filter_map
      (fun s ->
        let k = Trace.kinds.(s - Trace.handle_base) in
        if k = "closeP" || k = "closeQ" then None
        else Some (Printf.sprintf "party.handle.%s_us" k, mean_us Trace.phases s, "us"))
      kind_slots
  in
  let signs = per_upd Trace.signs and verifies = per_upd Trace.verifies in
  let msgs_per_update = per_upd Trace.msgs in
  let bytes_per_msg, roundtrip, wire_ok = wire_figures () in
  let upd_wall = Trace.wall_ns upd in
  let unattributed = upd_wall - Trace.attributed_ns upd in
  ( [ ("ledger.tick_us", mean_us main Trace.tick, "us");
      ( "ledger.due_per_tick",
        ratio (Trace.sum_phases main (fun i -> Trace.due.(i))) (Trace.slot_calls main Trace.tick),
        "count" );
      ("ledger.ticks_per_update", ratio (Trace.slot_calls upd Trace.tick) n_upd, "count");
      ("party.handle_us", per_update handle_ns, "us") ]
    @ kind_metrics
    @ [ ("party.end_of_round_us", per_update (Trace.slot_ns upd Trace.end_of_round), "us");
        ("party.request_us", per_update (Trace.slot_ns upd Trace.request), "us");
        ("network.deliver_us", per_update (Trace.slot_ns upd Trace.deliver), "us");
        ("party.signs_per_update", signs, "count");
        ("party.verifies_per_update", verifies, "count");
        ( "party.crypto_est_us",
          us
            ((signs *. List.assoc "crypto.sign_ns" micro)
            +. (verifies *. List.assoc "crypto.verify_cold_ns" micro)),
          "us" );
        ("wire.msgs_per_update", msgs_per_update, "count");
        ("wire.bytes_per_update", msgs_per_update *. bytes_per_msg, "B");
        ("wire.roundtrip_ns", roundtrip, "ns");
        ("tower.record_for_us", mean_us upd Trace.record_for, "us");
        ("tower.watch_us", mean_us upd Trace.watch, "us");
        ("tower.poll_us", mean_us main Trace.poll, "us");
        ("durable.wal_bytes_per_update", per_upd Trace.wal_bytes, "B");
        ("durable.snapshot_poll_ms", mean_us Trace.phases Trace.poll_snapshot /. 1e3, "ms");
        ("trace.unattributed_us", per_update unattributed, "us");
        ("trace.unattributed_pct", 100. *. ratio unattributed upd_wall, "%") ],
    wire_ok )

(* pay runs at one domain, fraud and churn at the default domain count.
   pay's only multi-transaction rounds are its set-up's funding rounds;
   at two domains each crosses to a worker domain, which pay's
   definition (it bypasses the sharded tick) leaves out. churn measures
   open and close as users get them, dispatch included. *)
let in_pool (workload : string) (f : unit -> 'a) : 'a =
  if workload = "pay" then Daric_util.Dpool.with_domains 1 f else f ()

let report (t : W.tally) =
  List.iter (fun w -> Printf.eprintf "perfbench: FAILED %s\n" w) (List.rev t.W.why)

(* Three runs of the same fixed work from the same seed: untraced,
   traced, untraced. The traced run must end in the first run's state;
   the second untraced run, on a heap the earlier runs already grew, is
   the baseline for the tracing overhead and the collector figures. *)
let per_layer (workload : string)
    (run : traced:bool -> mode:W.mode -> int -> W.result) (seed : int) :
    bool * int * int * metric list =
  let micro = Micro.run (Daric_util.Rng.create ~seed:(seed + 0x5eed)) in
  (* Each run starts on a fresh domain: the memo tables and the key
     context pool are domain-local, so no run inherits another's cache
     entries (all of them regenerate the same keys and transactions). *)
  let fresh f =
    Domain.join
      (Domain.spawn (fun () ->
           Daric_util.Memtune.pace ();
           f ()))
  in
  let untraced () =
    fresh (fun () -> in_pool workload (fun () -> run ~traced:false ~mode:W.Fixed seed))
  in
  Trace.reset ();
  let first = untraced () in
  Trace.reset ();
  Trace.enabled := true;
  let traced =
    fresh (fun () -> in_pool workload (fun () -> run ~traced:true ~mode:W.Fixed seed))
  in
  Trace.enabled := false;
  let traced_wall = Trace.wall_ns active in
  let layers, wire_ok = traced_layers workload micro in
  let diff = mismatches first.W.fp traced.W.fp in
  Trace.reset ();
  Trace.gc_on := true;
  let reference = untraced () in
  Trace.gc_on := false;
  let ui = Trace.phase_index Trace.Update in
  let n_upd = float_of_int (max 1 Trace.updates.(ui)) in
  (* Same punished set, height and accepted count at one domain as at
     the default domain count. *)
  let dom_attempted, dom_failed =
    match first.W.domain_fp with
    | [] -> (0, 0)
    | fp ->
        let one =
          fresh (fun () ->
              Daric_util.Dpool.with_domains 1 (fun () -> run ~traced:false ~mode:W.Fixed seed))
        in
        report one.W.tally;
        let same = one.W.domain_fp = fp in
        if not same then prerr_endline "perfbench: the 1-domain run diverged";
        (one.W.tally.W.attempted + 1, one.W.tally.W.failed + if same then 0 else 1)
  in
  if diff > 0 then
    Printf.eprintf "perfbench: traced run differs from the untraced run in %d state entries\n%!" diff;
  if not wire_ok then prerr_endline "perfbench: a captured message did not round-trip";
  let ms =
    List.map (fun (n, v) -> (n, v, "ns")) micro
    @ [ ("crypto.keyctx_pinned", float_of_int reference.W.pinned, "count");
        ("crypto.keyctx_tables", float_of_int reference.W.tables, "count") ]
    @ layers
    @ [ ("durable.recover_replayed", float_of_int reference.W.replayed, "count");
        ("gc.minor_words_per_update", Trace.gc_minor.(ui) /. n_upd, "words");
        ("gc.promoted_words_per_update", Trace.gc_promoted.(ui) /. n_upd, "words");
        ("gc.majors_per_1k_updates", 1e3 *. float_of_int Trace.gc_majors.(ui) /. n_upd, "count");
        ("gc.update_p99_us", us (Stats.quantile reference.W.lat.W.updates 0.99), "us");
        ("dpool.domains", float_of_int (in_pool workload Daric_util.Dpool.count), "count");
        ( "trace.overhead_pct",
          100. *. (ratio traced_wall (Trace.wall_ns active) -. 1.),
          "%" ) ]
  in
  let runs = [ first; traced; reference ] in
  let sum f = List.fold_left (fun a (r : W.result) -> a + f r.W.tally) 0 runs in
  let failed =
    sum (fun t -> t.W.failed) + dom_failed
    + (if diff > 0 then 1 else 0)
    + if wire_ok then 0 else 1
  in
  List.iter (fun (r : W.result) -> report r.W.tally) runs;
  (failed = 0, sum (fun t -> t.W.attempted) + dom_attempted + 2, failed, ms)

(* ---- command line ------------------------------------------------------ *)

let usage = "main.exe --workload pay|fraud|churn --seed N --seconds S --trace 0|1"

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, " pay, fraud or churn");
      ("--seed", Arg.Set_int seed, " input seed");
      ("--seconds", Arg.Set_float seconds, " measuring time (trace 0)");
      ("--trace", Arg.Set_int trace, " 0: end to end, 1: per layer") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  match W.run !workload with
  | None ->
      prerr_endline usage;
      exit 2
  | Some run ->
      Daric_util.Memtune.pace ();
      let correct, attempted, failed, ms =
        match !trace with
        | 0 ->
            let r =
              in_pool !workload (fun () -> run ~traced:false ~mode:(W.Timed !seconds) !seed)
            in
            report r.W.tally;
            ( r.W.tally.W.failed = 0,
              r.W.tally.W.attempted,
              r.W.tally.W.failed,
              end_to_end !workload r )
        | _ -> per_layer !workload run !seed
      in
      print_result ~correct ~attempted ~failed ms;
      exit (if correct then 0 else 1)
