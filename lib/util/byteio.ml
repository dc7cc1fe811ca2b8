(** Byte-oriented serialization helpers: a growable writer and a cursor
    reader, with Bitcoin-style little-endian integers and varints. *)

module Writer = struct
  type t = Buffer.t

  let create () : t = Buffer.create 64
  let contents (t : t) : string = Buffer.contents t
  let length (t : t) : int = Buffer.length t
  let byte (t : t) (v : int) = Buffer.add_char t (Char.chr (v land 0xff))
  let string (t : t) (s : string) = Buffer.add_string t s

  let u16 (t : t) (v : int) =
    byte t v;
    byte t (v lsr 8)

  let u32 (t : t) (v : int) =
    byte t v;
    byte t (v lsr 8);
    byte t (v lsr 16);
    byte t (v lsr 24)

  let u64 (t : t) (v : int64) =
    for i = 0 to 7 do
      byte t (Int64.to_int (Int64.shift_right_logical v (8 * i)))
    done

  (* Bitcoin CompactSize encoding. *)
  let varint (t : t) (v : int) =
    if v < 0 then invalid_arg "Writer.varint: negative"
    else if v < 0xfd then byte t v
    else if v <= 0xffff then begin
      byte t 0xfd;
      u16 t v
    end
    else if v <= 0xffffffff then begin
      byte t 0xfe;
      u32 t v
    end
    else begin
      byte t 0xff;
      u64 t (Int64.of_int v)
    end

  (** Length-prefixed (varint) string. *)
  let var_string (t : t) (s : string) =
    varint t (String.length s);
    string t s

  (* Arena of reusable buffers, one small stack per domain: hot
     encoders (tx bodies, scripts) borrow a cleared buffer instead of
     allocating a fresh one per serialization. Nested borrows pop
     further down the stack, so encoders that call encoders stay
     safe. *)
  let scratch_pool : t list ref Domain.DLS.key =
    Domain.DLS.new_key (fun () -> ref [])

  (** [with_scratch f] runs [f] with a writer borrowed from the
      domain-local arena (cleared, contents preserved only for the
      duration of [f]). The writer must not escape [f]. *)
  let with_scratch (f : t -> 'a) : 'a =
    let pool = Domain.DLS.get scratch_pool in
    let w =
      match !pool with
      | w :: rest ->
          pool := rest;
          Buffer.clear w;
          w
      | [] -> Buffer.create 256
    in
    Fun.protect
      ~finally:(fun () ->
        if Buffer.length w <= 1 lsl 16 then pool := w :: !pool)
      (fun () -> f w)
end

module Reader = struct
  type t = { src : string; mutable pos : int }

  exception Truncated
  exception Malformed of string

  let create (src : string) : t = { src; pos = 0 }
  let pos (t : t) : int = t.pos
  let remaining (t : t) : int = String.length t.src - t.pos
  let at_end (t : t) : bool = remaining t = 0

  let byte (t : t) : int =
    if t.pos >= String.length t.src then raise Truncated;
    let c = Char.code t.src.[t.pos] in
    t.pos <- t.pos + 1;
    c

  let string (t : t) (n : int) : string =
    if n < 0 then raise (Malformed "negative length");
    if remaining t < n then raise Truncated;
    let s = String.sub t.src t.pos n in
    t.pos <- t.pos + n;
    s

  let u16 (t : t) : int =
    let a = byte t in
    let b = byte t in
    a lor (b lsl 8)

  let u32 (t : t) : int =
    let a = u16 t in
    let b = u16 t in
    a lor (b lsl 16)

  let u64 (t : t) : int64 =
    let lo = u32 t in
    let hi = u32 t in
    Int64.logor (Int64.of_int lo) (Int64.shift_left (Int64.of_int hi) 32)

  (* Only the encoding {!Writer.varint} produces is accepted: the
     shortest prefix for the value, and a value that fits a
     non-negative [int]. Every decoded length therefore re-encodes to
     the bytes it was read from. *)
  let varint (t : t) : int =
    let minimal v lo = if v < lo then raise (Malformed "non-minimal varint") in
    match byte t with
    | 0xfd ->
        let v = u16 t in
        minimal v 0xfd;
        v
    | 0xfe ->
        let v = u32 t in
        minimal v 0x10000;
        v
    | 0xff ->
        let v = u64 t in
        if Int64.compare v 0L < 0 || Int64.compare v (Int64.of_int max_int) > 0
        then raise (Malformed "varint out of range");
        let v = Int64.to_int v in
        minimal v 0x100000000;
        v
    | v -> v

  let var_string (t : t) : string =
    let n = varint t in
    string t n
end
