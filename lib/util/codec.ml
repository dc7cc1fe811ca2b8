(** Two-way binary codecs (pickler combinators, after Kennedy, JFP
    2004): one value describes both the encoder and the decoder of a
    format, so the two cannot drift apart. Encoders append to a
    {!Byteio.Writer}; decoders read from a private cursor and raise
    internally, and {!decode} turns every failure into an [Error]. *)

module W = Byteio.Writer

type error = Truncated | Malformed of string

exception Fail of error

type reader = { src : string; mutable pos : int }

type 'a t = { write : W.t -> 'a -> unit; read : reader -> 'a }

let fail m = raise (Fail (Malformed m))

let remaining r = String.length r.src - r.pos

let need r n = if remaining r < n then raise (Fail Truncated)

let error_to_string = function
  | Truncated -> "truncated"
  | Malformed m -> m

let write c w v = c.write w v

let encode c v =
  let w = W.create () in
  c.write w v;
  W.contents w

let decode ?(off = 0) c s =
  if off < 0 || off > String.length s then invalid_arg "Codec.decode: offset";
  let r = { src = s; pos = off } in
  match c.read r with
  | v -> if r.pos = String.length s then Ok v else Error (Malformed "trailing bytes")
  | exception Fail e -> Error e

(* ---- leaves ---- *)

let byte r =
  need r 1;
  let c = Char.code (String.unsafe_get r.src r.pos) in
  r.pos <- r.pos + 1;
  c

let u8 = { write = W.byte; read = byte }

let le r n =
  need r n;
  let v = ref 0 in
  for i = n - 1 downto 0 do
    v := (!v lsl 8) lor Char.code (String.unsafe_get r.src (r.pos + i))
  done;
  r.pos <- r.pos + n;
  !v

let u32 = { write = W.u32; read = (fun r -> le r 4) }

(* Bit 63 has no room in a non-negative [int]: a u64 decodes only when
   its top two bits are clear, so every accepted value re-encodes to
   the bytes it was read from. *)
let u64 =
  { write =
      (fun w v ->
        if v < 0 then invalid_arg "Codec.u64: negative";
        W.u64 w (Int64.of_int v));
    read =
      (fun r ->
        need r 8;
        if Char.code r.src.[r.pos + 7] land 0xc0 <> 0 then fail "u64 out of range";
        le r 8) }

(* Only the encoding {!Byteio.Writer.varint} produces is accepted: the
   shortest prefix for the value, and a value that fits a non-negative
   [int]. *)
let varint =
  let minimal v lo = if v < lo then fail "non-minimal varint" else v in
  { write = W.varint;
    read =
      (fun r ->
        match byte r with
        | 0xfd -> minimal (le r 2) 0xfd
        | 0xfe -> minimal (le r 4) 0x10000
        | 0xff -> minimal (u64.read r) 0x100000000
        | v -> v) }

let sub r n =
  need r n;
  let s = String.sub r.src r.pos n in
  r.pos <- r.pos + n;
  s

let fixed n =
  { write =
      (fun w s ->
        if String.length s <> n then invalid_arg "Codec.fixed: length";
        W.string w s);
    read = (fun r -> sub r n) }

let var_string = { write = W.var_string; read = (fun r -> sub r (varint.read r)) }

(* ---- combinators ---- *)

(* Every element takes at least one byte, so a count beyond the bytes
   left is truncation — caught before anything is allocated. *)
let list c =
  { write =
      (fun w l ->
        W.varint w (List.length l);
        List.iter (c.write w) l);
    read =
      (fun r ->
        let n = varint.read r in
        if n > remaining r then raise (Fail Truncated);
        List.init n (fun _ -> c.read r)) }

let option c =
  { write =
      (fun w -> function
        | None -> W.byte w 0
        | Some v ->
            W.byte w 1;
            c.write w v);
    read =
      (fun r ->
        match byte r with
        | 0 -> None
        | 1 -> Some (c.read r)
        | _ -> fail "unknown option tag") }

let pair a b =
  { write =
      (fun w (x, y) ->
        a.write w x;
        b.write w y);
    read =
      (fun r ->
        let x = a.read r in
        (x, b.read r)) }

let triple a b c =
  { write =
      (fun w (x, y, z) ->
        a.write w x;
        b.write w y;
        c.write w z);
    read =
      (fun r ->
        let x = a.read r in
        let y = b.read r in
        (x, y, c.read r)) }

let conv inj proj c =
  { write = (fun w v -> c.write w (proj v)); read = (fun r -> inj (c.read r)) }

let check inj proj c =
  { write = (fun w v -> c.write w (proj v));
    read = (fun r -> match inj (c.read r) with Ok v -> v | Error m -> fail m) }

type 'a case = Case : int * 'b t * ('b -> 'a) * ('a -> 'b option) -> 'a case

let case tag c inj proj = Case (tag, c, inj, proj)

let sum cases =
  let by_tag = Array.make 256 None in
  List.iter (fun (Case (tag, _, _, _) as k) -> by_tag.(tag) <- Some k) cases;
  let rec write w v = function
    | [] -> invalid_arg "Codec.sum: no case"
    | Case (tag, c, _, proj) :: rest -> (
        match proj v with
        | Some x ->
            W.byte w tag;
            c.write w x
        | None -> write w v rest)
  in
  { write = (fun w v -> write w v cases);
    read =
      (fun r ->
        match by_tag.(byte r) with
        | Some (Case (_, c, inj, _)) -> inj (c.read r)
        | None -> fail "unknown tag") }

let enum table =
  let to_tag = Hashtbl.create (List.length table) in
  let of_tag = Array.make 256 None in
  List.iter
    (fun (v, tag) ->
      Hashtbl.replace to_tag v tag;
      of_tag.(tag) <- Some v)
    table;
  { write = (fun w v -> W.byte w (Hashtbl.find to_tag v));
    read =
      (fun r ->
        match of_tag.(byte r) with Some v -> v | None -> fail "unknown enum tag") }

type span = { src : string; off : int; len : int }

let spanned c inj proj =
  { write =
      (fun w v ->
        let s = proj v in
        W.string w (if s.off = 0 && s.len = String.length s.src then s.src
                    else String.sub s.src s.off s.len));
    read =
      (fun r ->
        let off = r.pos in
        let v = c.read r in
        inj v { src = r.src; off; len = r.pos - off }) }
