(** Byte-oriented serialization helpers: a growable writer with
    Bitcoin-style little-endian integers and varints. *)

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
