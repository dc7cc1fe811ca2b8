(** Input-script validation: checks that a transaction's witness
    satisfies the condition of the output it spends. *)

module Script = Daric_script.Script
module Interp = Daric_script.Interp

type error =
  | Missing_witness
  | Witness_script_mismatch  (** revealed script does not hash to the program *)
  | Pubkey_hash_mismatch
  | Malformed_witness
  | Unspendable
  | Script_error of Interp.error

let error_to_string = function
  | Missing_witness -> "missing witness"
  | Witness_script_mismatch -> "witness script does not match P2WSH program"
  | Pubkey_hash_mismatch -> "public key does not match P2WPKH program"
  | Malformed_witness -> "malformed witness"
  | Unspendable -> "output is unspendable"
  | Script_error e -> "script error: " ^ Interp.error_to_string e

(** [verify_input tx ~input_index ~spent ~input_age] checks the witness
    of input [input_index] against the spent output's condition.
    [input_age] is the number of rounds since [spent] was recorded
    (for OP_CHECKSEQUENCEVERIFY). *)
let verify_input (tx : Tx.t) ~(input_index : int) ~(spent : Tx.output)
    ~(input_age : int) : (unit, error) result =
  let witness =
    match List.nth_opt tx.witnesses input_index with
    | Some w -> w
    | None -> []
  in
  let check_sig ~pk_bytes ~sig_bytes =
    Sighash.check tx ~input_index ~pk_bytes ~sig_bytes
  in
  let ctx = { Interp.check_sig; tx_locktime = tx.locktime; input_age } in
  let run script stack =
    match Interp.run ctx script stack with
    | Ok () -> Ok ()
    | Error e -> Error (Script_error e)
  in
  (* The witness lists elements bottom-to-top; the interpreter's initial
     stack has the last-listed data element on top. *)
  let stack_of_data elts =
    List.fold_left
      (fun acc e ->
        match (acc, e) with
        | Error _, _ -> acc
        | Ok st, Tx.Data d -> Ok (d :: st)
        | Ok _, Tx.Wscript _ -> Error Malformed_witness)
      (Ok []) elts
  in
  match spent.spk with
  | Tx.Op_return -> Error Unspendable
  | Tx.Raw script -> (
      match stack_of_data witness with
      | Error e -> Error e
      | Ok stack -> run script stack)
  | Tx.P2wpkh h -> (
      match witness with
      | [ Tx.Data sg; Tx.Data pk ] ->
          if not (String.equal (Daric_crypto.Hash.hash160 pk) h) then
            Error Pubkey_hash_mismatch
          else run [ Script.Push pk; Script.Checksig ] [ sg ]
      | _ -> Error Malformed_witness)
  | Tx.P2wsh h -> (
      match List.rev witness with
      | Tx.Wscript script :: rest_rev ->
          if not (String.equal (Script.hash script) h) then
            Error Witness_script_mismatch
          else (
            match stack_of_data (List.rev rest_rev) with
            | Error e -> Error e
            | Ok stack -> run script stack)
      | _ -> Error Missing_witness)
