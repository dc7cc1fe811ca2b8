(* One sample of every protocol message kind, shared by the wire tests
   and the generic codec property of the durability tests. *)

module Tx = Daric_tx.Tx
module Wire = Daric_core.Wire
module Keys = Daric_core.Keys
module Rng = Daric_util.Rng

let messages () : Wire.msg list =
  let rng = Rng.create ~seed:3 in
  let keys = Keys.pub (Keys.generate rng) in
  let sig73 = String.make 73 's' in
  let tid = { Tx.txid = Rng.bytes rng 32; vout = 2 } in
  let theta =
    [ { Tx.value = 40_000; spk = Tx.P2wpkh (Rng.bytes rng 20) };
      { Tx.value = 60_000; spk = Tx.P2wsh (Rng.bytes rng 32) } ]
  in
  [ Wire.Create_info { id = "chan-9"; tid; keys };
    Wire.Create_com { id = "c"; split_sig = sig73; commit_sig = sig73 };
    Wire.Create_fund { id = "c"; fund_sig = sig73 };
    Wire.Update_req { id = "c"; theta; tstp = 3 };
    Wire.Update_info { id = "c"; split_sig = sig73 };
    Wire.Update_com_initiator { id = "c"; split_sig = sig73; commit_sig = sig73 };
    Wire.Update_com_responder { id = "c"; commit_sig = sig73 };
    Wire.Revoke_initiator { id = "c"; rev_sig = sig73 };
    Wire.Revoke_responder { id = "c"; rev_sig = sig73 };
    Wire.Close_req { id = "c"; fin_sig = sig73 };
    Wire.Close_ack { id = "c"; fin_sig = sig73 } ]
