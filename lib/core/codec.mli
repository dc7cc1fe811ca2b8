(** Key-material codecs shared by {!Persist} and the watchtower's
    packed record storage (no {!Persist} dependency, so {!Watchtower}
    can use them without a cycle). *)

module W = Daric_util.Byteio.Writer
module R = Daric_util.Byteio.Reader

val write_keypair : W.t -> Keys.keypair -> unit
val read_keypair : R.t -> Keys.keypair
val write_pub : W.t -> Keys.pub -> unit
val read_pub : R.t -> Keys.pub
val write_role : W.t -> Keys.role -> unit
val read_role : R.t -> Keys.role
(** Only the bytes {!write_role} writes (0 or 1);
    @raise Daric_util.Byteio.Reader.Malformed on any other. *)
