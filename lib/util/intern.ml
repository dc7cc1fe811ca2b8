(** String interning (hash-consing) for immutable payloads duplicated
    across channels and parties: 33-byte pubkey encodings, 73-byte
    signatures, txids, channel ids, script bytes.

    [string s] returns the canonical instance of [s]: the first caller
    donates its copy, every later structurally-equal string is dropped
    in favour of the shared one — N channels that each decode the same
    pubkey retain one heap block, not N.

    Tables are domain-local (same discipline as the {!Memo} tables:
    no locks, no false sharing) and bounded — when a
    table fills it is reset wholesale, which only costs future sharing,
    never correctness. Counters are process-wide so the memory benches
    can report hit rates and deduplicated bytes. *)

let table_max = 1 lsl 16

let table : (string, string) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 1024)

let hits = Atomic.make 0
let misses = Atomic.make 0
let saved_bytes = Atomic.make 0

(* Interning pays for itself on short immutable payloads; very large
   strings are rare, unlikely to repeat, and would bloat the table. *)
let max_len = 256

let string (s : string) : string =
  if String.length s > max_len then s
  else
    let t = Domain.DLS.get table in
    match Hashtbl.find_opt t s with
    | Some canonical ->
        Atomic.incr hits;
        if not (canonical == s) then
          ignore (Atomic.fetch_and_add saved_bytes (String.length s));
        canonical
    | None ->
        Atomic.incr misses;
        if Hashtbl.length t >= table_max then Hashtbl.reset t;
        Hashtbl.add t s s;
        s

type stats = { hits : int; misses : int; saved_bytes : int }

let stats () : stats =
  { hits = Atomic.get hits;
    misses = Atomic.get misses;
    saved_bytes = Atomic.get saved_bytes }
