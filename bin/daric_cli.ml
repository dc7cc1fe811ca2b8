(* daric: command-line driver for the Daric payment-channel
   reproduction — table regeneration, attack/incentive analyses,
   transaction-flow charts and a scripted channel demo. *)

open Cmdliner

let setup_logs (level : Logs.level option) =
  Logs.set_reporter (Logs_fmt.reporter ());
  Logs.set_level level

let log_term =
  let env = Cmd.Env.info "DARIC_VERBOSITY" in
  Logs_cli.level ~env ()

(* ---- tables ---- *)

let tables_cmd =
  let which =
    Arg.(value & pos 0 (enum [ ("all", `All); ("1", `T1); ("3", `T3) ]) `All
         & info [] ~docv:"TABLE" ~doc:"Which table to print: 1, 3 or all.")
  in
  let updates =
    Arg.(value & opt int 1000
         & info [ "max-updates" ] ~doc:"Largest update count in the Table 1 sweep.")
  in
  let run logs which updates =
    setup_logs logs;
    let ns = List.filter (fun n -> n <= updates) [ 1; 10; 100; 1000 ] in
    (match which with
    | `All | `T1 -> print_string (Daric_analysis.Tables.table1 ~ns ())
    | `T3 -> ());
    match which with
    | `All | `T3 ->
        print_newline ();
        print_string (Daric_analysis.Tables.table3 ());
        print_newline ();
        print_string (Daric_analysis.Tables.measured_ops_table ())
    | `T1 -> ()
  in
  Cmd.v
    (Cmd.info "tables" ~doc:"Regenerate Table 1 and Table 3 of the paper.")
    Term.(const run $ log_term $ which $ updates)

(* ---- attack ---- *)

let attack_cmd =
  let channels =
    Arg.(value & opt int 10 & info [ "n" ] ~doc:"Number of victim channels.")
  in
  let blocks =
    Arg.(value & opt int 12
         & info [ "blocks" ] ~doc:"HTLC timelock in blocks (paper: 144).")
  in
  let run logs channels blocks =
    setup_logs logs;
    let cfg =
      { Daric_pcn.Attack.default_config with
        n_channels = channels;
        timelock_blocks = blocks }
    in
    print_string (Daric_analysis.Tables.attack_report ~cfg ())
  in
  Cmd.v
    (Cmd.info "attack"
       ~doc:"Run the Section 6.1 channel-closure delay attack against eltoo \
             and the same adversary against Daric.")
    Term.(const run $ log_term $ channels $ blocks)

(* ---- incentives ---- *)

let incentives_cmd =
  let run logs =
    setup_logs logs;
    print_string (Daric_analysis.Tables.incentives_report ())
  in
  Cmd.v
    (Cmd.info "incentives"
       ~doc:"Print the Section 6.2 punishment-threshold analysis.")
    Term.(const run $ log_term)

(* ---- flow charts ---- *)

let flow_cmd =
  let which =
    Arg.(value
         & pos 0 (enum [ ("sample", `Sample); ("daric", `Daric); ("lightning", `Ln) ]) `Daric
         & info [] ~docv:"CHART" ~doc:"sample (Fig 1), daric (Fig 3) or lightning (Fig 2).")
  in
  let dot =
    Arg.(value & flag & info [ "dot" ] ~doc:"Emit Graphviz DOT instead of ASCII.")
  in
  let run logs which dot =
    setup_logs logs;
    let module F = Daric_core.Flowchart in
    let chart =
      match which with
      | `Sample -> F.sample ()
      | `Daric -> F.daric_state ~i:3 ()
      | `Ln -> F.lightning_pts_state ~i:3 ()
    in
    print_string (if dot then F.to_dot chart else F.to_ascii chart)
  in
  Cmd.v
    (Cmd.info "flow" ~doc:"Render the paper's transaction-flow figures.")
    Term.(const run $ log_term $ which $ dot)

(* ---- demo ---- *)

let demo_cmd =
  let module I = Daric_schemes.Scheme_intf in
  let module Registry = Daric_schemes.Registry in
  let updates =
    Arg.(value & opt int 5 & info [ "updates" ] ~doc:"Number of payments.")
  in
  let dishonest =
    Arg.(value & flag
         & info [ "dishonest" ] ~doc:"Replay an old state and get punished.")
  in
  let force =
    Arg.(value & flag
         & info [ "force" ] ~doc:"Close unilaterally at the latest state.")
  in
  let scheme =
    let scheme_conv =
      Arg.enum
        (List.map (fun n -> (String.lowercase_ascii n, n)) (Registry.names ()))
    in
    Arg.(value & opt scheme_conv "Daric"
         & info [ "scheme" ]
             ~doc:"Channel scheme to run (any registered scheme).")
  in
  let run logs updates dishonest force scheme_name =
    setup_logs logs;
    let (module S : I.SCHEME) = Registry.find_exn scheme_name in
    let env = I.make_env ~seed:99 () in
    let config = { I.default_config with bal_a = 60_000; bal_b = 40_000 } in
    let fail e =
      Fmt.epr "%s@." (I.error_to_string e);
      exit 1
    in
    match S.open_channel env config with
    | Error e -> fail e
    | Ok ch ->
        Fmt.pr "channel open (%s): alice %d, bob %d@." S.name config.I.bal_a
          config.I.bal_b;
        for k = 1 to updates do
          let bal_a = config.I.bal_a - (1000 * k)
          and bal_b = config.I.bal_b + (1000 * k) in
          (match S.update ch ~bal_a ~bal_b with
          | Ok () -> ()
          | Error e -> fail e);
          Fmt.pr "update %d: alice %d, bob %d (state %d)@." k bal_a bal_b
            (S.sn ch)
        done;
        let close, label =
          if dishonest then
            (S.dishonest_close, "bob replays a revoked state...")
          else if force then (S.force_close, "alice closes unilaterally...")
          else (S.collaborative_close, "collaborative close requested...")
        in
        Fmt.pr "%s@." label;
        (match close ch with
        | Error e -> fail e
        | Ok o ->
            List.iter
              (fun ev -> Fmt.pr "  %s@." (I.event_to_string ev))
              o.I.trace;
            Fmt.pr "outcome: %s in %d rounds@."
              (if o.I.punished then "cheater punished"
               else if o.I.resolved then "resolved"
               else "unresolved")
              o.I.rounds);
        print_string
          (Daric_core.Flowchart.to_ascii
             (Daric_core.Flowchart.of_ledger env.I.ledger ~funding:(S.funding ch)
                ~title:"on-chain closure"))
  in
  Cmd.v
    (Cmd.info "demo"
       ~doc:"Run a scripted channel session end to end for any registered \
             scheme.")
    Term.(const run $ log_term $ updates $ dishonest $ force $ scheme)

(* ---- lifetime ---- *)

let lifetime_cmd =
  let run logs =
    setup_logs logs;
    let module L = Daric_core.Locktime in
    Fmt.pr "Section 4.1 - channel lifetime@.";
    Fmt.pr "block-height encoding (S0 = 0) at height 700000: %d updates@."
      (L.height_mode_capacity ~current_height:700_000);
    Fmt.pr "timestamp encoding (S0 = 5e8) at t = 1.65e9:   %d updates@."
      (L.timestamp_mode_capacity ~current_time:1_650_000_000);
    Fmt.pr "unlimited at <= 1 update/second: %b@."
      (L.unlimited_lifetime ~seconds_per_update:1.0)
  in
  Cmd.v
    (Cmd.info "lifetime" ~doc:"Print the Section 4.1 lifetime analysis.")
    Term.(const run $ log_term)

(* ---- tower ---- *)

let tower_cmd =
  let wal =
    Arg.(value & opt (some string) None
         & info [ "wal" ] ~docv:"PATH"
             ~doc:"Back the probe tower's journal and snapshot by files \
                   ($(docv) and $(docv).snap). Default: in-memory store.")
  in
  let snapshot_every =
    Arg.(value & opt int 8
         & info [ "snapshot-every" ] ~docv:"K"
             ~doc:"Snapshot the tower state and reset the WAL every $(docv) \
                   rounds.")
  in
  let replicas =
    Arg.(value & opt int 3
         & info [ "replicas" ] ~docv:"R"
             ~doc:"Number of independent replicated towers (besides the \
                   probe) under the rotating crash schedule.")
  in
  let channels =
    Arg.(value & opt int 100 & info [ "channels" ] ~doc:"Number of channels.")
  in
  let updates =
    Arg.(value & opt int 1 & info [ "updates" ] ~doc:"Updates per channel.")
  in
  let frauds =
    Arg.(value & opt int 8
         & info [ "frauds" ] ~doc:"Channels hit by the revoked-replay wave.")
  in
  let rounds =
    Arg.(value & opt int 24 & info [ "rounds" ] ~doc:"Monitoring rounds.")
  in
  let run logs wal snapshot_every replicas channels updates frauds rounds =
    setup_logs logs;
    let probe_store =
      match wal with
      | Some path -> Daric_core.Durable.file_store path
      | None -> Daric_core.Durable.memory_store ()
    in
    let s =
      Daric_analysis.Tower_sim.run ~channels ~updates
        ~frauds:(min frauds channels) ~rounds ~snapshot_every
        ~replicas:(max 1 replicas) ~probe_store ()
    in
    Fmt.pr "%a@." Daric_analysis.Tower_sim.pp s;
    match wal with
    | Some path -> Fmt.pr "probe store: %s (+ %s.snap)@." path path
    | None -> ()
  in
  Cmd.v
    (Cmd.info "tower"
       ~doc:"Run the durable replicated watchtower: N channels guarded by R \
             snapshot+WAL towers under a rotating crash schedule plus a \
             fault-free probe whose store is crashed and re-opened at the \
             end; prints the recovery cost and the per-tower scorecard.")
    Term.(const run $ log_term $ wal $ snapshot_every $ replicas $ channels
          $ updates $ frauds $ rounds)

(* ---- lint ---- *)

let lint_cmd =
  let scheme =
    Arg.(value & opt (some string) None
         & info [ "scheme" ]
             ~doc:"Lint only this scheme (default: the whole registry).")
  in
  let updates =
    Arg.(value & opt int 3
         & info [ "updates" ] ~doc:"Updates per closure scenario.")
  in
  let verbose =
    Arg.(value & flag
         & info [ "all-findings" ]
             ~doc:"Print warnings and notes too, not just errors.")
  in
  let run logs scheme updates verbose =
    setup_logs logs;
    let reports = Daric_staticcheck.Sweep.run ~updates ?scheme () in
    if reports = [] then begin
      Fmt.epr "unknown scheme%a; known: %s@."
        Fmt.(option (fun fmt -> Fmt.pf fmt " %s")) scheme
        (String.concat ", " (Daric_schemes.Registry.names ()));
      exit 2
    end;
    List.iter (Daric_staticcheck.Sweep.pp_report ~verbose Fmt.stdout) reports;
    let errors = Daric_staticcheck.Sweep.errors reports in
    Fmt.pr "%d error(s) across %d scheme report(s)@." errors
      (List.length reports);
    if errors > 0 then exit 1
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:"Statically analyze every scheme's scripts and transaction DAG.")
    Term.(const run $ log_term $ scheme $ updates $ verbose)

(* ---- check ---- *)

let check_cmd =
  let module M = Daric_mcheck.Matrix in
  let module Mc = Daric_mcheck.Mcheck in
  let scheme =
    Arg.(value & opt (some string) None
         & info [ "scheme" ]
             ~doc:"Model-check only this registered scheme's lifecycle world \
                   (default: closure world, mutation matrix, every scheme and \
                   both tower variants).")
  in
  let depth =
    Arg.(value & opt (some int) None
         & info [ "depth" ] ~docv:"D" ~doc:"Override the depth bound.")
  in
  let budget =
    Arg.(value & opt (some int) None
         & info [ "budget" ] ~docv:"S" ~doc:"Override the state-visit budget.")
  in
  let smoke =
    Arg.(value & flag
         & info [ "smoke" ]
             ~doc:"CI bound: closure world, two mutations, Daric plus one \
                   baseline scheme, both towers.")
  in
  let trace =
    Arg.(value & flag
         & info [ "trace" ]
             ~doc:"Print counterexample traces, and the on-chain flowchart \
                   for closure-world counterexamples.")
  in
  let run logs scheme depth budget smoke trace =
    setup_logs logs;
    let override (c : Mc.config) =
      { c with
        Mc.max_depth = Option.value depth ~default:c.Mc.max_depth;
        max_states = Option.value budget ~default:c.Mc.max_states }
    in
    let print_entry ?(mutation : Daric_staticcheck.Daricmodel.mutation option)
        (e : M.entry) =
      Fmt.pr "%a@." M.pp_entry e;
      let diags = M.to_diags e in
      List.iter
        (fun (d : Daric_staticcheck.Diag.t) ->
          Fmt.pr "  [%s] %s@."
            (Daric_staticcheck.Diag.severity_name d.severity)
            d.detail)
        (if trace then diags
         else
           List.filter
             (fun (d : Daric_staticcheck.Diag.t) ->
               d.severity <> Daric_staticcheck.Diag.Info)
             diags);
      if trace then
        List.iter
          (fun (c : Mc.counterexample) ->
            let cfg =
              { Daric_mcheck.Closure_world.default_cfg with
                Daric_mcheck.Closure_world.mutate = mutation }
            in
            match
              M.closure_flowchart ~cfg ~title:e.M.model c.Mc.trace
            with
            | Some chart ->
                print_string (Daric_core.Flowchart.to_ascii chart)
            | None -> ())
          (if mutation <> None then e.M.result.Mc.counterexamples else [])
    in
    let entries =
      match scheme with
      | Some name -> (
          let name =
            match
              List.find_opt
                (fun n ->
                  String.lowercase_ascii n = String.lowercase_ascii name)
                (Daric_schemes.Registry.names ())
            with
            | Some n -> n
            | None -> name
          in
          match M.scheme_one ~config:(override M.lifecycle_config) name with
          | Some e -> [ e ]
          | None ->
              Fmt.epr "unknown scheme %s; known: %s@." name
                (String.concat ", " (Daric_schemes.Registry.names ()));
              exit 2)
      | None ->
          let closure =
            M.closure_clean
              ~config:
                (override
                   (if smoke then
                      { M.clean_closure_config with Mc.max_depth = 12 }
                    else M.clean_closure_config))
              ()
          in
          print_entry closure;
          let mutants =
            let all = M.mutation_matrix ~config:(override M.mutant_closure_config) () in
            if smoke then
              List.filter
                (fun (mu, _) ->
                  mu = Daric_staticcheck.Daricmodel.Drop_revocation
                  || mu = Daric_staticcheck.Daricmodel.Rev_csv_delay)
                all
            else all
          in
          List.iter (fun (mu, e) -> print_entry ~mutation:mu e) mutants;
          let schemes =
            if smoke then
              List.filteri (fun i _ -> i < 2)
                (List.filter_map
                   (fun n -> M.scheme_one ~config:(override M.lifecycle_config) n)
                   ("Daric"
                   :: List.filter
                        (fun n -> n <> "Daric")
                        (Daric_schemes.Registry.names ())))
            else M.scheme_sweep ~config:(override M.lifecycle_config) ()
          in
          List.iter (fun e -> print_entry e) schemes;
          let towers = M.tower_sweep ~config:(override M.tower_config) () in
          List.iter (fun e -> print_entry e) towers;
          closure :: List.map snd mutants @ schemes @ towers
    in
    (match scheme with
    | Some _ -> List.iter (fun e -> print_entry e) entries
    | None -> ());
    let bad = List.filter (fun e -> not (M.ok e)) entries in
    Fmt.pr "%d world(s) checked, %d with unexpected results@."
      (List.length entries) (List.length bad);
    if bad <> [] then exit 1
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:"Model-check the channel worlds: exhaustive bounded exploration \
             of adversarial closure, scheme lifecycles and watchtower \
             handoff, with the seeded-mutation rediscovery gate.")
    Term.(const run $ log_term $ scheme $ depth $ budget $ smoke $ trace)

let main =
  Cmd.group
    (Cmd.info "daric" ~version:"1.0.0"
       ~doc:"Daric payment channel: reproduction of Mirzaei et al., DSN 2022.")
    [ tables_cmd; attack_cmd; incentives_cmd; flow_cmd; demo_cmd;
      lifetime_cmd; tower_cmd; lint_cmd; check_cmd ]

let () = exit (Cmd.eval main)
