module I = Daric_schemes.Scheme_intf
module Registry = Daric_schemes.Registry
module Harness = Daric_schemes.Harness
module Ledger = Daric_chain.Ledger

type report = {
  scheme : string;
  txs : int;
  scenarios : int;
  diags : Diag.t list;
}

type close = [ `Collaborative | `Dishonest | `Force ]

let close_name = function
  | `Collaborative -> "collaborative"
  | `Dishonest -> "dishonest"
  | `Force -> "force"

(* One scenario on a fresh environment: open, a few updates, close.
   Returns the key inventory and the ledger to lint. The harness's
   [run] discards the channel handle, and we need it for
   [known_pubkeys] — hence the small local loop. *)
let run_scenario (module S : I.SCHEME) ~updates (close : close) :
    (string list * Ledger.t, I.error) result =
  let ( let* ) = Result.bind in
  let env = I.make_env () in
  let cfg = I.default_config in
  let* ch = S.open_channel env cfg in
  let rec upd k =
    if k > updates then Ok ()
    else
      let bal_a, bal_b = Harness.balance_at cfg k in
      let* () = S.update ch ~bal_a ~bal_b in
      upd (k + 1)
  in
  let* () = upd 1 in
  let* _outcome =
    match close with
    | `Collaborative -> S.collaborative_close ch
    | `Dishonest -> S.dishonest_close ch
    | `Force -> S.force_close ch
  in
  Ok (S.known_pubkeys ch, env.I.ledger)

let run_scheme ?(updates = 3) (module S : I.SCHEME) : report =
  let txs = ref 0 in
  let diags =
    List.concat_map
      (fun close ->
        match run_scenario (module S : I.SCHEME) ~updates close with
        | Error e ->
            [ Diag.make ~scheme:S.name ~path:(close_name close)
                ~rule:Diag.Scenario_failure ~severity:Diag.Error
                (I.error_to_string e) ]
        | Ok (known, ledger) ->
            let accepted = Ledger.accepted ledger in
            txs := !txs + List.length accepted;
            Dagcheck.lint ~scheme:S.name ~known_keys:known accepted)
      [ `Collaborative; `Dishonest; `Force ]
  in
  { scheme = S.name; txs = !txs; scenarios = 3; diags = Diag.sort diags }

(* The {!Daricmodel} deep lint, reported as scheme ["Daric[model]"]. *)
let daric_model_report () : report =
  let m = Daricmodel.build () in
  let diags = Daricmodel.lint m in
  let diags =
    List.map (fun d -> { d with Diag.scheme = "Daric[model]" }) diags
  in
  { scheme = "Daric[model]"; txs = List.length m.Daricmodel.entries;
    scenarios = 1; diags = Diag.sort diags }

let run ?(updates = 3) ?scheme () : report list =
  match scheme with
  | None ->
      List.map (run_scheme ~updates) Registry.all @ [ daric_model_report () ]
  | Some name -> (
      match Registry.find name with
      | None -> []
      | Some s ->
          let base = [ run_scheme ~updates s ] in
          if Registry.name s = "Daric" then base @ [ daric_model_report () ]
          else base)

let errors reports =
  List.fold_left (fun acc r -> acc + Diag.count Diag.Error r.diags) 0 reports

let pp_report ~verbose fmt r =
  let e = Diag.count Diag.Error r.diags
  and w = Diag.count Diag.Warning r.diags
  and i = Diag.count Diag.Info r.diags in
  Format.fprintf fmt "%-12s %4d txs  %d scenarios  %d errors, %d warnings, %d notes@."
    r.scheme r.txs r.scenarios e w i;
  List.iter
    (fun d ->
      if verbose || d.Diag.severity = Diag.Error then
        Format.fprintf fmt "    %s@." (Diag.to_string d))
    r.diags
