(** Input-script validation: does a transaction's witness satisfy the
    condition of the output it spends? *)

type error =
  | Missing_witness
  | Witness_script_mismatch
  | Pubkey_hash_mismatch
  | Malformed_witness
  | Unspendable
  | Script_error of Daric_script.Interp.error

val error_to_string : error -> string

val verify_input :
  Tx.t -> input_index:int -> spent:Tx.output -> input_age:int ->
  (unit, error) result
(** [verify_input tx ~input_index ~spent ~input_age] checks the witness
    of one input against the spent output's condition; [input_age] is
    the number of rounds since [spent] was recorded (for CSV). *)
