(** Memory sweep: what an N-channel Daric system *retains* on the
    heap, as opposed to what it costs in time ({!Scale}).

    The probe builds the same system as {!Scale.run} — N channels
    opened through the SCHEME registry's Daric wrapper, a sweep of
    off-chain updates, every channel delegated to one watchtower — but
    keeps every root alive across a full compaction and diffs
    [Gc.stat].live_words against a quiesced baseline taken before the
    first allocation. That difference divided by N is the
    retained-words-per-channel figure the memory engine is judged on:
    it prices the parties' O(1) channel state, the tower's packed
    record arena, the ledger's compacted accepted log and every index
    over them, all at once.

    Alongside retention it reports the allocator's behaviour during
    the update phase: promoted words per update (how much of an
    update's transient garbage escaped the minor heap) and an
    *estimated* share of update wall-time spent in major collections —
    one timed full major at the end, multiplied by the number of major
    cycles the update phase triggered, over the phase's duration. An
    estimate, not a measurement (OCaml's incremental marker has no
    per-slice clock), but it moves in the right direction and is cheap
    enough to run at N = 100k. *)

module I = Daric_schemes.Scheme_intf
module Ledger = Daric_chain.Ledger
module Watchtower = Daric_core.Watchtower
module Memtune = Daric_util.Memtune

type sample = {
  channels : int;
  updates_per_channel : int;
  retained_words : int;  (** quiesced live-word delta for the system *)
  retained_words_per_channel : float;
  top_heap_words : int;  (** [Gc.quick_stat].top_heap_words at end *)
  promoted_words_per_update : float;
  major_collections : int;  (** during the update phase *)
  major_time_share : float;
      (** estimated fraction of update time in the major collector *)
  updates_per_sec : float;
  tower_arena_bytes : int;  (** live packed record bytes *)
  ledger_pack_bytes : int;  (** live packed accepted-log bytes *)
  ledger_compacted : int;  (** accepted-log entries held packed *)
}

(** [run ~channels ~updates ~seed ()] builds the system, measures, and
    returns the sample. All roots (channels, tower, ledger) stay live
    until the final statistics are read. *)
let run ?(channels = 1_000) ?(updates = 2) ?(seed = 7) () : sample =
  Memtune.pace ();
  Memtune.quiesce ();
  let base_live = (Gc.stat ()).Gc.live_words in
  let env = I.make_env ~delta:1 ~seed () in
  let updates = max 1 updates in
  let chans = Fleet.open_all env ~prefix:"m" ~channels in
  let before = Memtune.quick_stats () in
  let (), update_seconds = Fleet.timed (fun () -> Fleet.update_all chans ~updates) in
  let after = Memtune.quick_stats () in
  let tower = Watchtower.create ~wid:"mem-tower" () in
  Fleet.watch_all chans ~who:"memprobe" (fun r ->
      if not (Watchtower.watch tower r) then
        failwith "memprobe: tower rejected a valid record");
  (* One snapshot/recovery roundtrip: decodes every packed record and
     installs a second tower, which is dropped before the retention
     diff, so what a recovery leaves behind is counted too. *)
  (let snap = Daric_core.Persist.encode_tower tower in
   match Daric_core.Persist.restore_tower snap with
   | Ok t2 ->
       if Watchtower.guarded_count t2 <> channels then
         failwith "memprobe: snapshot roundtrip lost records"
   | Error e -> failwith (Daric_core.Persist.error_to_string e));
  (* Let the accepted log compact past the funding transactions. *)
  I.settle env (Ledger.default_compact_depth + 1);
  (* Quiesce, then diff live words against the pre-build baseline. *)
  let (), major_seconds = Fleet.timed Memtune.quiesce in
  let end_live = (Gc.stat ()).Gc.live_words in
  let gcs = Memtune.quick_stats () in
  let n_updates = channels * updates in
  let majors = after.Memtune.major_collections - before.Memtune.major_collections in
  let sample =
    { channels;
      updates_per_channel = updates;
      retained_words = end_live - base_live;
      retained_words_per_channel =
        float_of_int (end_live - base_live) /. float_of_int (max channels 1);
      top_heap_words = gcs.Memtune.top_heap_words;
      promoted_words_per_update =
        (after.Memtune.promoted_words -. before.Memtune.promoted_words)
        /. float_of_int (max n_updates 1);
      major_collections = majors;
      major_time_share =
        (if update_seconds > 0. then
           Float.min 1. (major_seconds *. float_of_int majors /. update_seconds)
         else 0.);
      updates_per_sec =
        (if update_seconds > 0. then
           float_of_int n_updates /. update_seconds
         else 0.);
      tower_arena_bytes = Watchtower.arena_live_bytes tower;
      ledger_pack_bytes = Ledger.pack_live_bytes env.ledger;
      ledger_compacted = Ledger.compacted_count env.ledger }
  in
  (* Roots must survive every statistic read above. *)
  ignore (Sys.opaque_identity chans);
  ignore (Sys.opaque_identity tower);
  ignore (Sys.opaque_identity env);
  sample

let pp ppf (s : sample) =
  Fmt.pf ppf
    "@[<v>N=%d channels (%d updates each, %.0f upd/s)@,\
     retained: %d words (%.1f words/channel)   top-heap: %d words@,\
     promoted/update: %.1f words   major GC share (est.): %.1f%% over %d \
     majors@,\
     tower arena: %dB   ledger pack: %dB (%d entries)@]"
    s.channels s.updates_per_channel s.updates_per_sec s.retained_words
    s.retained_words_per_channel s.top_heap_words s.promoted_words_per_update
    (100. *. s.major_time_share)
    s.major_collections s.tower_arena_bytes s.ledger_pack_bytes
    s.ledger_compacted
