(** Deterministic pseudo-random generator (splitmix64).

    All randomness in the simulator flows through explicitly seeded
    instances of this generator, so every experiment is reproducible. *)

type t = { mutable state : int64 }

let create ~(seed : int) : t = { state = Int64.of_int seed }

let golden = 0x9E3779B97F4A7C15L

(** The next raw 64-bit output, advancing the state. *)
let next_int64 (t : t) : int64 =
  t.state <- Int64.add t.state golden;
  let z = t.state in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

(** [int t bound] draws a uniform integer in [0, bound). *)
let int (t : t) (bound : int) : int =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  let v = Int64.to_int (Int64.shift_right_logical (next_int64 t) 2) in
  v mod bound

(** [float t] draws a uniform float in [0, 1). *)
let float (t : t) : float =
  let v = Int64.to_float (Int64.shift_right_logical (next_int64 t) 11) in
  v /. 9007199254740992.0 (* 2^53 *)

(** [bool t p] is true with probability [p]. *)
let bool (t : t) (p : float) : bool = float t < p

(** [bytes t n] draws [n] uniformly random bytes. *)
let bytes (t : t) (n : int) : string =
  let out = Bytes.create n in
  for i = 0 to n - 1 do
    Bytes.set out i (Char.chr (int t 256))
  done;
  Bytes.unsafe_to_string out

(** [split t] derives an independent generator, advancing [t]. *)
let split (t : t) : t = { state = next_int64 t }
