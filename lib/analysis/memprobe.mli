(** Memory sweep: retained heap of an N-channel Daric system (parties,
    packed tower records, compacted ledger, indexes) plus the update
    phase's promotion rate and an estimated major-GC time share —
    the {!Scale} harness's space-side companion. *)

type sample = {
  channels : int;
  updates_per_channel : int;
  retained_words : int;
  retained_words_per_channel : float;
  top_heap_words : int;
  promoted_words_per_update : float;
  major_collections : int;
  major_time_share : float;
  updates_per_sec : float;
  tower_arena_bytes : int;
  ledger_pack_bytes : int;
  ledger_compacted : int;
}

val run : ?channels:int -> ?updates:int -> ?seed:int -> unit -> sample
(** Build the N-channel system (keeping every root live), settle past
    the ledger's compaction depth, quiesce, and report the retained
    live-word delta against a pre-build baseline plus allocator
    behaviour during the update phase. [major_time_share] is an
    estimate: one timed full major × majors during updates ÷ update
    seconds. *)

val pp : Format.formatter -> sample -> unit
