(** Protocol messages exchanged between Daric channel parties
    (Appendix D). Signatures travel as the 73-byte flagged encodings of
    {!Daric_tx.Sighash}. *)

module Tx = Daric_tx.Tx

type msg =
  | Create_info of { id : string; tid : Tx.outpoint; keys : Keys.pub }
      (** step 1: funding source + channel public keys *)
  | Create_com of { id : string; split_sig : string; commit_sig : string }
      (** step 3: ANYPREVOUT sig on split_0 + sig on the peer's commit_0 *)
  | Create_fund of { id : string; fund_sig : string }
      (** step 4: signature on the funding transaction *)
  | Update_req of { id : string; theta : Tx.output list; tstp : int }
      (** update step 1 *)
  | Update_info of { id : string; split_sig : string }
      (** update step 3: responder's ANYPREVOUT sig on split_{i+1} *)
  | Update_com_initiator of { id : string; split_sig : string; commit_sig : string }
      (** update step 5 (updateComP) *)
  | Update_com_responder of { id : string; commit_sig : string }
      (** update step 7 (updateComQ) *)
  | Revoke_initiator of { id : string; rev_sig : string }
      (** update step 9 (revokeP): sig on the peer's revocation tx *)
  | Revoke_responder of { id : string; rev_sig : string }
      (** update step 11 (revokeQ) *)
  | Close_req of { id : string; fin_sig : string }
      (** close step 2 (CloseP): sig on the modified split transaction *)
  | Close_ack of { id : string; fin_sig : string }  (** close step 3 (CloseQ) *)

let channel_id = function
  | Create_info { id; _ }
  | Create_com { id; _ }
  | Create_fund { id; _ }
  | Update_req { id; _ }
  | Update_info { id; _ }
  | Update_com_initiator { id; _ }
  | Update_com_responder { id; _ }
  | Revoke_initiator { id; _ }
  | Revoke_responder { id; _ }
  | Close_req { id; _ }
  | Close_ack { id; _ } -> id

let kind = function
  | Create_info _ -> "createInfo"
  | Create_com _ -> "createCom"
  | Create_fund _ -> "createFund"
  | Update_req _ -> "updateReq"
  | Update_info _ -> "updateInfo"
  | Update_com_initiator _ -> "updateComP"
  | Update_com_responder _ -> "updateComQ"
  | Revoke_initiator _ -> "revokeP"
  | Revoke_responder _ -> "revokeQ"
  | Close_req _ -> "closeP"
  | Close_ack _ -> "closeQ"

(* ------------------------------------------------------------------ *)
(* Serialization: a canonical byte encoding for protocol messages,
   used for communication-cost accounting and transcript storage. A
   tag byte, the channel id, then the message's own fields. *)

module C = Daric_util.Codec
module Txcodec = Daric_tx.Txcodec

(* Keys travel as their 33-byte script encodings. *)
let keys =
  Keys.pub_codec
    (C.check
       (fun s ->
         Option.to_result ~none:"bad public key"
           (Daric_crypto.Schnorr.decode_public_key s))
       Keys.enc (C.fixed 33))

let str = C.var_string

(* A message carrying one signature after the channel id. *)
let sig1 tag inj proj = C.case tag (C.pair str str) (fun (id, x) -> inj id x) proj

(* ... and one carrying two. *)
let sig2 tag inj proj =
  C.case tag (C.triple str str str) (fun (id, x, y) -> inj id x y) proj

let codec : msg C.t =
  C.sum
    [ C.case 1 (C.triple str Txcodec.outpoint keys)
        (fun (id, tid, keys) -> Create_info { id; tid; keys })
        (function Create_info { id; tid; keys } -> Some (id, tid, keys) | _ -> None);
      sig2 2
        (fun id split_sig commit_sig -> Create_com { id; split_sig; commit_sig })
        (function
          | Create_com { id; split_sig; commit_sig } -> Some (id, split_sig, commit_sig)
          | _ -> None);
      sig1 3
        (fun id fund_sig -> Create_fund { id; fund_sig })
        (function Create_fund { id; fund_sig } -> Some (id, fund_sig) | _ -> None);
      C.case 4 (C.triple str C.u32 (C.list Txcodec.output))
        (fun (id, tstp, theta) -> Update_req { id; theta; tstp })
        (function Update_req { id; theta; tstp } -> Some (id, tstp, theta) | _ -> None);
      sig1 5
        (fun id split_sig -> Update_info { id; split_sig })
        (function Update_info { id; split_sig } -> Some (id, split_sig) | _ -> None);
      sig2 6
        (fun id split_sig commit_sig -> Update_com_initiator { id; split_sig; commit_sig })
        (function
          | Update_com_initiator { id; split_sig; commit_sig } ->
              Some (id, split_sig, commit_sig)
          | _ -> None);
      sig1 7
        (fun id commit_sig -> Update_com_responder { id; commit_sig })
        (function Update_com_responder { id; commit_sig } -> Some (id, commit_sig) | _ -> None);
      sig1 8
        (fun id rev_sig -> Revoke_initiator { id; rev_sig })
        (function Revoke_initiator { id; rev_sig } -> Some (id, rev_sig) | _ -> None);
      sig1 9
        (fun id rev_sig -> Revoke_responder { id; rev_sig })
        (function Revoke_responder { id; rev_sig } -> Some (id, rev_sig) | _ -> None);
      sig1 10
        (fun id fin_sig -> Close_req { id; fin_sig })
        (function Close_req { id; fin_sig } -> Some (id, fin_sig) | _ -> None);
      sig1 11
        (fun id fin_sig -> Close_ack { id; fin_sig })
        (function Close_ack { id; fin_sig } -> Some (id, fin_sig) | _ -> None) ]

(** Canonical byte encoding. *)
let encode (m : msg) : string = C.encode codec m

(** Serialized size in bytes (per-update communication cost). *)
let size (m : msg) : int = String.length (encode m)

let decode (b : string) : msg option = Result.to_option (C.decode codec b)
