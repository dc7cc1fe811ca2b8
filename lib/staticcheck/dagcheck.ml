module Tx = Daric_tx.Tx
module Script = Daric_script.Script
module Hash = Daric_crypto.Hash

let lint ~scheme ~known_keys (accepted : (int * Tx.t) list) : Diag.t list =
  let txs = List.map snd accepted in
  let index : (string, Tx.t) Hashtbl.t = Hashtbl.create 64 in
  List.iter (fun tx -> Hashtbl.replace index (Tx.txid tx) tx) txs;
  let known_pkh = List.map Hash.hash160 known_keys in
  let diags = ref [] in
  let add ?txid ?path ~rule ~severity detail =
    diags := Diag.make ~scheme ?txid ?path ~rule ~severity detail :: !diags
  in
  (* Analyses are cached per script; script-level findings are emitted
     once per distinct script, not once per spend. *)
  let analyses : (string, Abstract.t) Hashtbl.t = Hashtbl.create 16 in
  let analyze ~txid (s : Script.t) : Abstract.t =
    let h = Script.hash s in
    match Hashtbl.find_opt analyses h with
    | Some a -> a
    | None ->
        let a = Abstract.analyze s in
        Hashtbl.add analyses h a;
        List.iter
          (fun (rule, severity, path, detail) ->
            add ~txid ~path ~rule ~severity detail)
          a.Abstract.diags;
        a
  in
  let check_keys ~txid (a : Abstract.t) =
    if known_keys <> [] then
      List.iter
        (fun k ->
          if not (List.mem k known_keys) then
            add ~txid ~rule:Diag.Orphan_key ~severity:Diag.Error
              (Printf.sprintf "script checks key %s owned by no party"
                 (Daric_util.Hex.short k)))
        a.Abstract.used_keys
  in
  let check_script_spend ~txid ~(spender : Tx.t) (s : Script.t) =
    let a = analyze ~txid s in
    check_keys ~txid a;
    if
      Abstract.satisfiable a
      && not (Abstract.locktime_compatible a spender.Tx.locktime)
    then
      add ~txid ~rule:Diag.Cltv_unsatisfiable ~severity:Diag.Error
        (Printf.sprintf
           "no spend path accepts the spender's nLockTime %d"
           spender.Tx.locktime)
  in
  let lint_tx (tx : Tx.t) =
    let txid = Diag.short_txid (Tx.txid tx) in
    List.iter
      (fun (o : Tx.output) ->
        if o.value <= 0 then
          add ~txid ~rule:Diag.Nonpositive_output ~severity:Diag.Error
            (Printf.sprintf "output carries %d sat" o.value);
        match o.spk with
        | Tx.Raw s ->
            let a = analyze ~txid s in
            check_keys ~txid a
        | Tx.P2wpkh h ->
            if known_keys <> [] && not (List.mem h known_pkh) then
              add ~txid ~rule:Diag.Orphan_key ~severity:Diag.Error
                "P2WPKH output pays a key owned by no party"
        | Tx.P2wsh _ | Tx.Op_return -> ())
      tx.Tx.outputs;
    let resolved_all = ref (tx.Tx.inputs <> []) in
    let in_sum = ref 0 in
    List.iteri
      (fun i (inp : Tx.input) ->
        match Hashtbl.find_opt index inp.Tx.prevout.Tx.txid with
        | None -> resolved_all := false (* environment root (coinbase) *)
        | Some prev -> (
            match List.nth_opt prev.Tx.outputs inp.Tx.prevout.Tx.vout with
            | None ->
                resolved_all := false;
                add ~txid ~rule:Diag.Witness_mismatch ~severity:Diag.Error
                  "input references a nonexistent output"
            | Some out -> (
                in_sum := !in_sum + out.Tx.value;
                let w =
                  Option.value ~default:[] (List.nth_opt tx.Tx.witnesses i)
                in
                match out.Tx.spk with
                | Tx.Op_return ->
                    (* recorded environment funding; never validated *)
                    ()
                | Tx.P2wpkh h -> (
                    match w with
                    | [ Tx.Data _sg; Tx.Data pk ] ->
                        if Hash.hash160 pk <> h then
                          add ~txid ~rule:Diag.Witness_mismatch
                            ~severity:Diag.Error
                            "revealed key does not hash to the spent program"
                        else if known_keys <> [] && not (List.mem pk known_keys)
                        then
                          add ~txid ~rule:Diag.Orphan_key ~severity:Diag.Error
                            "P2WPKH spend reveals a key owned by no party"
                    | _ ->
                        add ~txid ~rule:Diag.Witness_mismatch
                          ~severity:Diag.Error "malformed P2WPKH witness")
                | Tx.P2wsh h -> (
                    match List.rev w with
                    | Tx.Wscript s :: _ ->
                        if Script.hash s <> h then
                          add ~txid ~rule:Diag.Witness_mismatch
                            ~severity:Diag.Error
                            "revealed script does not hash to the spent program";
                        check_script_spend ~txid ~spender:tx s
                    | _ ->
                        add ~txid ~rule:Diag.Witness_mismatch
                          ~severity:Diag.Error "P2WSH spend reveals no script")
                | Tx.Raw s -> check_script_spend ~txid ~spender:tx s)))
      tx.Tx.inputs;
    if !resolved_all then begin
      let fee = !in_sum - Tx.total_output_value tx in
      if fee < 0 then
        add ~txid ~rule:Diag.Negative_fee ~severity:Diag.Error
          (Printf.sprintf "outputs exceed inputs by %d sat" (-fee))
      else if fee > 0 then
        add ~txid ~rule:Diag.Value_leak ~severity:Diag.Warning
          (Printf.sprintf "%d sat of input value unaccounted for" fee)
    end
  in
  List.iter lint_tx txs;
  Diag.sort !diags
