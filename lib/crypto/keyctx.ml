(** Per-public-key crypto contexts.

    A context captures everything about one key that is worth paying
    for once and amortizing across a channel lifetime of signature
    operations: the subgroup-membership verdict, the fixed 4-byte
    element/scalar encodings (so hot paths hash slices instead of
    concatenating), and — lazily — a {!Group.precomp} window table
    that turns the key's side of a verification into a handful of
    table multiplications ({!Group.precomp_bytes} bytes each, so
    tables are built only when a context is actually verified under).

    Contexts live in a bounded, domain-local pool with two classes of
    residency, mirroring the watchtower arena's reclaim discipline:

    - {e pinned}: refcounted via {!pin}/{!release}. A party pins its
      channel's keys at open and releases them at close/punish; a
      pinned entry is never evicted. Pinning saturates at the pool
      capacity, so opening 100k channels cannot retain 100k tables —
      later channels simply run on the un-keyed paths.
    - {e cached}: inserted by {!find} on demand for ad-hoc keys and
      evicted least-recently-used above the capacity, keeping pool
      memory flat regardless of how many distinct keys pass by.

    {!peek} is the hot-path lookup: it never inserts, so a miss (a key
    beyond the pinning budget) costs one hashtable probe and falls
    back to the plain paths instead of thrashing the pool. *)

module Group = Group

type t = {
  pk : Group.element;
  valid : bool;  (** subgroup membership, checked once at build *)
  pk_enc : string;  (** [Group.encode_element pk], shared *)
  sk : Group.scalar option;  (** present only in signing contexts *)
  sk_enc : string;  (** [Group.encode_scalar sk] ("" without [sk]) *)
  mutable table : Group.precomp option;  (** lazy fixed-base window table *)
}

let create ?(sk : Group.scalar option) (pk : Group.element) : t =
  { pk;
    valid = Group.is_element_fast pk;
    pk_enc = Group.encode_element pk;
    sk;
    sk_enc = (match sk with Some sk -> Group.encode_scalar sk | None -> "");
    table = None }

let pk (t : t) : Group.element = t.pk
let is_valid (t : t) : bool = t.valid
let sk (t : t) : Group.scalar option = t.sk
let pk_enc (t : t) : string = t.pk_enc
let sk_enc (t : t) : string = t.sk_enc
let has_table (t : t) : bool = t.table <> None

(** The key's window table, built on first use and retained for the
    context's lifetime ({!Group.precomp_bytes} bytes). *)
let table (t : t) : Group.precomp =
  match t.table with
  | Some tb -> tb
  | None ->
      let tb = Group.precompute t.pk in
      t.table <- Some tb;
      tb

let table_bytes : int = Group.precomp_bytes

(* ------------------------------------------------------------------ *)
(* Bounded pool.                                                       *)

type entry = { ctx : t; mutable pins : int; mutable last : int }

type pool = {
  tbl : (int, entry) Hashtbl.t;
  mutable tick : int;  (** LRU clock, bumped on every touch *)
  mutable pinned : int;  (** entries with [pins > 0] *)
}

(** Pool capacity: pinned + cached entries together. 512 contexts bound
    retained pool memory at roughly 512 * (context + table) ≈ 0.9 MB
    per domain — flat in the number of channels, and small against the
    scale sweep's per-channel budget at every N in BENCH_mem.json. *)
let capacity = 512

(* Domain-local like every other crypto cache: a probe from a domain
   other than the protocol domain's must not race its table. *)
let pool_key : pool Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      { tbl = Hashtbl.create 256; tick = 0; pinned = 0 })

let touch (p : pool) (e : entry) : unit =
  p.tick <- p.tick + 1;
  e.last <- p.tick

(* Evict the least-recently-used unpinned entry (linear scan: eviction
   only runs on insert pressure, never on the lookup path). *)
let evict_one (p : pool) : unit =
  let victim = ref None in
  Hashtbl.iter
    (fun k e ->
      if e.pins = 0 then
        match !victim with
        | Some (_, le) when le.last <= e.last -> ()
        | _ -> victim := Some (k, e))
    p.tbl;
  match !victim with
  | Some (k, _) -> Hashtbl.remove p.tbl k
  | None -> ()

let insert (p : pool) (pk : Group.element) (ctx : t) : entry =
  if Hashtbl.length p.tbl >= capacity then evict_one p;
  let e = { ctx; pins = 0; last = 0 } in
  touch p e;
  Hashtbl.replace p.tbl pk e;
  e

(** [peek pk] is the pooled context for [pk], or [None] — never
    inserts, so hot paths beyond the pinning budget degrade to one
    hashtable probe instead of evicting each other's tables. *)
let peek (pk : Group.element) : t option =
  let p = Domain.DLS.get pool_key in
  match Hashtbl.find_opt p.tbl pk with
  | Some e ->
      touch p e;
      Some e.ctx
  | None -> None

(** [find pk] is the pooled context for [pk], inserted (and LRU-evicting
    above capacity) on miss. *)
let find ?(sk : Group.scalar option) (pk : Group.element) : t =
  let p = Domain.DLS.get pool_key in
  match Hashtbl.find_opt p.tbl pk with
  | Some e when e.ctx.sk <> None || sk = None ->
      touch p e;
      e.ctx
  | Some e ->
      (* upgrade a verify-only entry to a signing one, keeping residency *)
      let ctx = { (create ?sk pk) with table = e.ctx.table } in
      let e' = { e with ctx } in
      Hashtbl.replace p.tbl pk e';
      touch p e';
      ctx
  | None -> (insert p pk (create ?sk pk)).ctx

(** [pin pk] takes a refcount on [pk]'s context so it cannot be
    evicted. Saturates: once the pool is at capacity with no evictable
    entry, pinning is a no-op (the caller's verifies simply stay on the
    un-keyed paths) — so a million channel opens retain a bounded pool,
    not a million tables. Returns whether the pin was taken. *)
let pin ?(sk : Group.scalar option) (pk : Group.element) : bool =
  let p = Domain.DLS.get pool_key in
  match Hashtbl.find_opt p.tbl pk with
  | Some e ->
      if e.pins = 0 then p.pinned <- p.pinned + 1;
      e.pins <- e.pins + 1;
      touch p e;
      true
  | None ->
      if p.pinned >= capacity then false
      else begin
        let e = insert p pk (create ?sk pk) in
        e.pins <- 1;
        p.pinned <- p.pinned + 1;
        true
      end

(** [pin_ctx ctx] pins an already-built context under its public key,
    sharing the object (and any window table it has built) with the
    pool instead of constructing a second context for the same key.
    Same saturation rule as {!pin}; an entry already present for the
    key just gains a pin (first context in wins). *)
let pin_ctx (ctx : t) : bool =
  let p = Domain.DLS.get pool_key in
  match Hashtbl.find_opt p.tbl ctx.pk with
  | Some e ->
      if e.pins = 0 then p.pinned <- p.pinned + 1;
      e.pins <- e.pins + 1;
      touch p e;
      true
  | None ->
      if p.pinned >= capacity then false
      else begin
        let e = insert p ctx.pk ctx in
        e.pins <- 1;
        p.pinned <- p.pinned + 1;
        true
      end

(** [release pk] drops one pin. At refcount zero the entry is not
    freed — it stays as an ordinary LRU-evictable cache entry, so a
    channel reopening on the same keys rebuilds nothing. No-op for
    unknown (never-pinned or saturated-out) keys, so callers release
    unconditionally at close/punish. *)
let release (pk : Group.element) : unit =
  let p = Domain.DLS.get pool_key in
  match Hashtbl.find_opt p.tbl pk with
  | Some e when e.pins > 0 ->
      e.pins <- e.pins - 1;
      if e.pins = 0 then p.pinned <- p.pinned - 1
  | _ -> ()

type stats = { live : int; pinned : int; tables : int }

let stats () : stats =
  let p = Domain.DLS.get pool_key in
  let tables = ref 0 in
  Hashtbl.iter (fun _ e -> if e.ctx.table <> None then incr tables) p.tbl;
  { live = Hashtbl.length p.tbl; pinned = p.pinned; tables = !tables }

(** Drop every pooled context (pins included) on this domain. *)
let clear () : unit =
  let p = Domain.DLS.get pool_key in
  Hashtbl.reset p.tbl;
  p.pinned <- 0
