(** Growable append-only array (amortized O(1) push, O(1) random
    access). Backs the ledger's accepted-transaction and spent-outpoint
    logs, where assoc lists used to cost a full copy per query.

    Truncation ({!truncate}) supports the ledger's optimistic parallel
    round execution: a speculative batch of appends can be rolled back
    in O(appended). *)

type 'a t = {
  mutable data : 'a array;
  mutable len : int;
  dummy : 'a;  (** fills unused slots so no [Obj.magic] is needed *)
}

let create ~(dummy : 'a) () : 'a t = { data = [||]; len = 0; dummy }

let length (t : 'a t) : int = t.len

let get (t : 'a t) (i : int) : 'a =
  if i < 0 || i >= t.len then invalid_arg "Vec.get";
  Array.unsafe_get t.data i

(** [set t i x] overwrites an existing element in place (the ledger's
    accepted-log compaction swaps a live entry for its packed form). *)
let set (t : 'a t) (i : int) (x : 'a) : unit =
  if i < 0 || i >= t.len then invalid_arg "Vec.set";
  Array.unsafe_set t.data i x

let push (t : 'a t) (x : 'a) : unit =
  if t.len = Array.length t.data then begin
    let cap = max 8 (2 * Array.length t.data) in
    let data = Array.make cap t.dummy in
    Array.blit t.data 0 data 0 t.len;
    t.data <- data
  end;
  Array.unsafe_set t.data t.len x;
  t.len <- t.len + 1

(** [truncate t n] drops every element at index >= [n]; no-op when
    [n >= length t]. Dropped slots are reset to the dummy so rolled-back
    values do not leak. *)
let truncate (t : 'a t) (n : int) : unit =
  if n < 0 then invalid_arg "Vec.truncate";
  if n < t.len then begin
    Array.fill t.data n (t.len - n) t.dummy;
    t.len <- n
  end

(** Iterate indices [from, length) in order. *)
let iter_from (t : 'a t) ~(from : int) (f : 'a -> unit) : unit =
  for i = max 0 from to t.len - 1 do
    f (Array.unsafe_get t.data i)
  done

let iter (t : 'a t) (f : 'a -> unit) : unit = iter_from t ~from:0 f

(** Elements [from, length) as a list, in index order. *)
let list_from (t : 'a t) ~(from : int) : 'a list =
  let acc = ref [] in
  for i = t.len - 1 downto max 0 from do
    acc := Array.unsafe_get t.data i :: !acc
  done;
  !acc

let to_list (t : 'a t) : 'a list = list_from t ~from:0

let to_array (t : 'a t) : 'a array = Array.sub t.data 0 t.len

(** Drop all elements (capacity is kept for reuse). *)
let clear (t : 'a t) : unit = truncate t 0
