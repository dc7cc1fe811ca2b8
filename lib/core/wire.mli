(** Protocol messages exchanged between Daric channel parties
    (Appendix D), with a canonical byte encoding for communication
    accounting and transcripts. *)

module Tx = Daric_tx.Tx

type msg =
  | Create_info of { id : string; tid : Tx.outpoint; keys : Keys.pub }
  | Create_com of { id : string; split_sig : string; commit_sig : string }
  | Create_fund of { id : string; fund_sig : string }
  | Update_req of { id : string; theta : Tx.output list; tstp : int }
  | Update_info of { id : string; split_sig : string }
  | Update_com_initiator of { id : string; split_sig : string; commit_sig : string }
  | Update_com_responder of { id : string; commit_sig : string }
  | Revoke_initiator of { id : string; rev_sig : string }
  | Revoke_responder of { id : string; rev_sig : string }
  | Close_req of { id : string; fin_sig : string }
  | Close_ack of { id : string; fin_sig : string }

val channel_id : msg -> string

val kind : msg -> string
(** The paper's message name (createInfo, updateComP, ...). *)

val encode : msg -> string
(** Canonical byte encoding. *)

val decode : string -> msg option
(** Inverse of {!encode}; [None] on truncated, padded or malformed
    input. Only canonical encodings decode: an accepted message
    re-encodes to the bytes it was read from. Raw-script state outputs
    are not decodable (the protocol only ever ships P2WSH/P2WPKH
    outputs). *)

val size : msg -> int
(** Serialized size in bytes. *)
