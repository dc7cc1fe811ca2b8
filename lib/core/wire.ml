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
   used for communication-cost accounting and transcript storage. *)

module W = Daric_util.Byteio.Writer
module R = Daric_util.Byteio.Reader
module Txcodec = Daric_tx.Txcodec

let tag = function
  | Create_info _ -> 1
  | Create_com _ -> 2
  | Create_fund _ -> 3
  | Update_req _ -> 4
  | Update_info _ -> 5
  | Update_com_initiator _ -> 6
  | Update_com_responder _ -> 7
  | Revoke_initiator _ -> 8
  | Revoke_responder _ -> 9
  | Close_req _ -> 10
  | Close_ack _ -> 11

let write_outpoint w (o : Tx.outpoint) =
  W.var_string w o.Tx.txid;
  W.u32 w o.Tx.vout

let read_outpoint r : Tx.outpoint =
  let txid = R.var_string r in
  let vout = R.u32 r in
  { Tx.txid; vout }

let write_pub w (k : Keys.pub) =
  W.string w (Keys.enc k.Keys.main_pk);
  W.string w (Keys.enc k.Keys.sp_pk);
  W.string w (Keys.enc k.Keys.rv_pk);
  W.string w (Keys.enc k.Keys.rv'_pk)

let read_pub r : Keys.pub option =
  let dec () = Daric_crypto.Schnorr.decode_public_key (R.string r 33) in
  match (dec (), dec (), dec (), dec ()) with
  | Some main_pk, Some sp_pk, Some rv_pk, Some rv'_pk ->
      Some { Keys.main_pk; sp_pk; rv_pk; rv'_pk }
  | _ -> None

(** Canonical byte encoding. *)
let encode (m : msg) : string =
  let w = W.create () in
  W.byte w (tag m);
  W.var_string w (channel_id m);
  (match m with
  | Create_info { tid; keys; _ } ->
      write_outpoint w tid;
      write_pub w keys
  | Create_com { split_sig; commit_sig; _ } ->
      W.var_string w split_sig;
      W.var_string w commit_sig
  | Create_fund { fund_sig; _ } -> W.var_string w fund_sig
  | Update_req { theta; tstp; _ } ->
      W.u32 w tstp;
      Txcodec.write_list w Txcodec.write_output theta
  | Update_info { split_sig; _ } -> W.var_string w split_sig
  | Update_com_initiator { split_sig; commit_sig; _ } ->
      W.var_string w split_sig;
      W.var_string w commit_sig
  | Update_com_responder { commit_sig; _ } -> W.var_string w commit_sig
  | Revoke_initiator { rev_sig; _ } | Revoke_responder { rev_sig; _ } ->
      W.var_string w rev_sig
  | Close_req { fin_sig; _ } | Close_ack { fin_sig; _ } -> W.var_string w fin_sig);
  W.contents w

(** Serialized size in bytes (per-update communication cost). *)
let size (m : msg) : int = String.length (encode m)

let decode (s : string) : msg option =
  let r = R.create s in
  try
    let t = R.byte r in
    let id = R.var_string r in
    let msg =
      match t with
      | 1 -> (
          let tid = read_outpoint r in
          match read_pub r with
          | Some keys -> Some (Create_info { id; tid; keys })
          | None -> None)
      | 2 ->
          let split_sig = R.var_string r in
          let commit_sig = R.var_string r in
          Some (Create_com { id; split_sig; commit_sig })
      | 3 -> Some (Create_fund { id; fund_sig = R.var_string r })
      | 4 ->
          let tstp = R.u32 r in
          let theta = Txcodec.read_list r Txcodec.read_output in
          Some (Update_req { id; theta; tstp })
      | 5 -> Some (Update_info { id; split_sig = R.var_string r })
      | 6 ->
          let split_sig = R.var_string r in
          let commit_sig = R.var_string r in
          Some (Update_com_initiator { id; split_sig; commit_sig })
      | 7 -> Some (Update_com_responder { id; commit_sig = R.var_string r })
      | 8 -> Some (Revoke_initiator { id; rev_sig = R.var_string r })
      | 9 -> Some (Revoke_responder { id; rev_sig = R.var_string r })
      | 10 -> Some (Close_req { id; fin_sig = R.var_string r })
      | 11 -> Some (Close_ack { id; fin_sig = R.var_string r })
      | _ -> None
    in
    if R.at_end r then msg else None
  with R.Truncated | R.Malformed _ -> None
