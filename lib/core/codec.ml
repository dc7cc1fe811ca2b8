(** Key-material codecs shared by the channel/tower snapshots
    ({!Persist}) and the watchtower's packed record storage
    ({!Watchtower}) — split out of {!Persist} so the watchtower can
    encode records without a dependency cycle (Persist depends on
    Watchtower for the snapshot codec). Headerless; same byte format
    as always. *)

module W = Daric_util.Byteio.Writer
module R = Daric_util.Byteio.Reader
module Schnorr = Daric_crypto.Schnorr

let write_keypair w (k : Keys.keypair) = W.u32 w k.Keys.sk

let read_keypair r : Keys.keypair =
  let sk = R.u32 r in
  { Keys.sk; pk = Schnorr.public_key_of_secret sk }

let write_pub w (k : Keys.pub) =
  W.u32 w k.Keys.main_pk;
  W.u32 w k.Keys.sp_pk;
  W.u32 w k.Keys.rv_pk;
  W.u32 w k.Keys.rv'_pk

let read_pub r : Keys.pub =
  let main_pk = R.u32 r in
  let sp_pk = R.u32 r in
  let rv_pk = R.u32 r in
  let rv'_pk = R.u32 r in
  { Keys.main_pk; sp_pk; rv_pk; rv'_pk }

let write_role w (role : Keys.role) =
  W.byte w (match role with Keys.Alice -> 0 | Keys.Bob -> 1)

let read_role r : Keys.role =
  match R.byte r with
  | 0 -> Keys.Alice
  | 1 -> Keys.Bob
  | _ -> raise (R.Malformed "unknown role byte")
