(** Byte arena with size-class free lists: GC-opaque retained storage.

    Blobs live inside a few large [Bytes] chunks, so the major GC
    marks a handful of unscanned blocks instead of one boxed value per
    stored blob. Slots are bump-allocated at power-of-two capacities;
    a freed slot goes on the free list of its size class and is reused
    by the next store of a fitting blob — a churned arena's footprint
    tracks its live set, not its allocation history.

    Not thread-safe: an arena belongs to one owner (a watchtower, a
    ledger), mutated from one domain at a time — the same discipline
    as the hashtable indexes next to it. *)

type slot = {
  s_chunk : int;  (** index into the chunk table *)
  s_off : int;  (** byte offset inside the chunk *)
  s_cap : int;  (** power-of-two capacity *)
  mutable s_len : int;  (** live bytes ([-1] once freed) *)
}

(* Size classes are powers of two from 2^4 up; class k holds slots of
   capacity 2^(k+min_class_bits). *)
let min_class_bits = 4
let max_classes = 48

type t = {
  chunk_bytes : int;
  mutable chunks : Bytes.t array;
  mutable nchunks : int;
  mutable bump : int;  (** next free offset in the last chunk *)
  free : slot list array;  (** size class -> reusable slots *)
  mutable live_bytes : int;
  mutable live_slots : int;
}

let default_chunk_bytes = 1 lsl 20

let create ?(chunk_bytes = default_chunk_bytes) () : t =
  if chunk_bytes < 1 lsl min_class_bits then
    invalid_arg "Arena.create: chunk too small";
  { chunk_bytes;
    chunks = [||];
    nchunks = 0;
    bump = 0;
    free = Array.make max_classes [];
    live_bytes = 0;
    live_slots = 0 }

let class_of_cap (cap : int) : int =
  (* cap is a power of two >= 2^min_class_bits *)
  let rec bits n acc = if n <= 1 then acc else bits (n lsr 1) (acc + 1) in
  bits cap 0 - min_class_bits

let cap_of_len (len : int) : int =
  let min_cap = 1 lsl min_class_bits in
  let rec up c = if c >= len then c else up (c * 2) in
  up min_cap

let capacity_bytes (t : t) : int =
  Array.fold_left (fun acc c -> acc + Bytes.length c) 0 t.chunks

let live_bytes (t : t) : int = t.live_bytes
let live_slots (t : t) : int = t.live_slots

let add_chunk (t : t) (size : int) : unit =
  let chunk = Bytes.create size in
  let chunks = Array.make (t.nchunks + 1) chunk in
  Array.blit t.chunks 0 chunks 0 t.nchunks;
  t.chunks <- chunks;
  t.nchunks <- t.nchunks + 1;
  t.bump <- 0

let fresh_slot (t : t) (cap : int) : slot =
  if t.nchunks = 0 || t.bump + cap > Bytes.length t.chunks.(t.nchunks - 1)
  then add_chunk t (max t.chunk_bytes cap);
  let s = { s_chunk = t.nchunks - 1; s_off = t.bump; s_cap = cap; s_len = 0 } in
  t.bump <- t.bump + cap;
  s

(** Copy [src.[off .. off+len-1]] into a fresh (or free-listed) slot. *)
let store_sub (t : t) (src : string) ~(off : int) ~(len : int) : slot =
  let cap = cap_of_len len in
  let cls = class_of_cap cap in
  let s =
    match t.free.(cls) with
    | s :: rest ->
        t.free.(cls) <- rest;
        s
    | [] -> fresh_slot t cap
  in
  Bytes.blit_string src off t.chunks.(s.s_chunk) s.s_off len;
  s.s_len <- len;
  t.live_bytes <- t.live_bytes + len;
  t.live_slots <- t.live_slots + 1;
  s

let store (t : t) (blob : string) : slot =
  store_sub t blob ~off:0 ~len:(String.length blob)

let free (t : t) (s : slot) : unit =
  if s.s_len >= 0 then begin
    t.live_bytes <- t.live_bytes - s.s_len;
    t.live_slots <- t.live_slots - 1;
    s.s_len <- -1;
    t.free.(class_of_cap s.s_cap) <- s :: t.free.(class_of_cap s.s_cap)
  end

(** Overwrite in place when the new bytes fit the slot's capacity (the
    common case: a watchtower record's size is stable across updates);
    otherwise free + store. Returns the slot now holding them. *)
let replace_sub (t : t) (s : slot) (src : string) ~(off : int) ~(len : int) :
    slot =
  if s.s_len >= 0 && len <= s.s_cap then begin
    Bytes.blit_string src off t.chunks.(s.s_chunk) s.s_off len;
    t.live_bytes <- t.live_bytes + len - s.s_len;
    s.s_len <- len;
    s
  end
  else begin
    free t s;
    store_sub t src ~off ~len
  end

let read (t : t) (s : slot) : string =
  Bytes.sub_string t.chunks.(s.s_chunk) s.s_off s.s_len
