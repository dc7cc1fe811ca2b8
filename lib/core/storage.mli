(** Byte-accurate storage accounting for Table 1: measure exactly what
    the {!Party} state machine retains per channel, independent of the
    number of updates performed. *)

val party_bytes : Party.t -> id:string -> int
(** Total bytes a party retains for the channel [id] (0 if unknown). *)
