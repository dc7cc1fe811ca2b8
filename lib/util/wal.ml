(** Append-only write-ahead log: length-prefixed, CRC-framed,
    versioned records over an abstract byte sink. See the interface
    for the frame layout and the torn-tail / corruption distinction. *)

(* ---- CRC-32 (IEEE 802.3, reflected) ------------------------------- *)

let crc_table : int array =
  let t = Array.make 256 0 in
  for n = 0 to 255 do
    let c = ref n in
    for _ = 0 to 7 do
      c := if !c land 1 = 1 then 0xedb88320 lxor (!c lsr 1) else !c lsr 1
    done;
    t.(n) <- !c
  done;
  t

let crc32 ?(init = 0xffffffff) (s : string) ~(pos : int) ~(len : int) : int =
  let c = ref init in
  for i = pos to pos + len - 1 do
    c := crc_table.((!c lxor Char.code s.[i]) land 0xff) lxor (!c lsr 8)
  done;
  !c

let crc32_final (c : int) : int = c lxor 0xffffffff land 0xffffffff

(* ---- sinks -------------------------------------------------------- *)

module Sink = struct
  type ops = {
    append : string -> unit;
    contents : unit -> string;
    truncate : int -> unit;
    flush : unit -> unit;
    close : unit -> unit;
  }

  type t = { ops : ops; mutable size : int }

  let size (t : t) : int = t.size
  let contents (t : t) : string = t.ops.contents ()

  let append (t : t) (s : string) : unit =
    t.ops.append s;
    t.size <- t.size + String.length s

  let truncate (t : t) (n : int) : unit =
    if n < t.size then begin
      t.ops.truncate n;
      t.size <- n
    end

  let flush (t : t) : unit = t.ops.flush ()
  let close (t : t) : unit = t.ops.close ()

  let memory () : t =
    let buf = Buffer.create 256 in
    { ops =
        { append = Buffer.add_string buf;
          contents = (fun () -> Buffer.contents buf);
          truncate = Buffer.truncate buf;
          flush = ignore;
          close = ignore };
      size = 0 }

  (* File sink: append-mode channel; truncation (a rare, open-time
     operation) rewrites the good prefix, which keeps the
     implementation on the portable Stdlib. *)
  let file (path : string) : t =
    let read_all () =
      match open_in_bin path with
      | exception Sys_error _ -> ""
      | ic ->
          Fun.protect
            ~finally:(fun () -> close_in_noerr ic)
            (fun () -> really_input_string ic (in_channel_length ic))
    in
    let oc =
      ref (open_out_gen [ Open_append; Open_creat; Open_binary ] 0o644 path)
    in
    let ops =
      { append = (fun s -> output_string !oc s);
        contents =
          (fun () ->
            Stdlib.flush !oc;
            read_all ());
        truncate =
          (fun n ->
            Stdlib.flush !oc;
            let keep = String.sub (read_all ()) 0 n in
            close_out_noerr !oc;
            let trunc =
              open_out_gen [ Open_trunc; Open_creat; Open_binary ] 0o644 path
            in
            output_string trunc keep;
            close_out_noerr trunc;
            oc :=
              open_out_gen [ Open_append; Open_creat; Open_binary ] 0o644 path);
        flush = (fun () -> Stdlib.flush !oc);
        close = (fun () -> close_out_noerr !oc) }
    in
    { ops; size = String.length (read_all ()) }
end

(* ---- framing ------------------------------------------------------ *)

type record = { kind : int; payload : string }
type status = Complete | Torn of int

type error =
  | Bad_version of { offset : int; version : int }
  | Corrupt of { offset : int }

let error_to_string = function
  | Bad_version { offset; version } ->
      Printf.sprintf "unknown WAL frame version %d at offset %d" version offset
  | Corrupt { offset } ->
      Printf.sprintf "WAL frame CRC mismatch at offset %d" offset

let version = 1
let header_len = 6 (* u32 payload length + version byte + kind byte *)
let frame_overhead = header_len + 4 (* + trailing CRC *)

let frame ~(kind : int) (payload : string) : string =
  let w = Byteio.Writer.create () in
  Byteio.Writer.u32 w (String.length payload);
  Byteio.Writer.byte w version;
  Byteio.Writer.byte w kind;
  Byteio.Writer.string w payload;
  let body = Byteio.Writer.contents w in
  let crc = crc32_final (crc32 body ~pos:0 ~len:(String.length body)) in
  let w2 = Byteio.Writer.create () in
  Byteio.Writer.string w2 body;
  Byteio.Writer.u32 w2 crc;
  Byteio.Writer.contents w2

let u32_at (s : string) (pos : int) : int =
  Char.code s.[pos]
  lor (Char.code s.[pos + 1] lsl 8)
  lor (Char.code s.[pos + 2] lsl 16)
  lor (Char.code s.[pos + 3] lsl 24)

(** Decode raw log bytes into records. A frame that extends past the
    end of the input is a torn tail (reported, not an error); a
    complete frame with a CRC mismatch refuses the whole log. *)
let decode (log : string) : (record list * status, error) result =
  let len = String.length log in
  let rec go (off : int) (acc : record list) =
    if off = len then Ok (List.rev acc, Complete)
    else if len - off < frame_overhead then Ok (List.rev acc, Torn (len - off))
    else begin
      let plen = u32_at log off in
      if plen < 0 || len - off < frame_overhead + plen then
        Ok (List.rev acc, Torn (len - off))
      else begin
        let ver = Char.code log.[off + 4] in
        let kind = Char.code log.[off + 5] in
        let stored_crc = u32_at log (off + header_len + plen) in
        let crc =
          crc32_final (crc32 log ~pos:off ~len:(header_len + plen))
        in
        if crc <> stored_crc then Error (Corrupt { offset = off })
        else if ver <> version then
          Error (Bad_version { offset = off; version = ver })
        else
          let payload = String.sub log (off + header_len) plen in
          go (off + frame_overhead + plen) ({ kind; payload } :: acc)
      end
    end
  in
  go 0 []

(* ---- log handle --------------------------------------------------- *)

type t = { s : Sink.t; mutable appended : int }

let attach (s : Sink.t) : (t * record list * status, error) result =
  match decode (Sink.contents s) with
  | Error e -> Error e
  | Ok (records, status) ->
      (match status with
      | Complete -> ()
      | Torn dropped -> Sink.truncate s (Sink.size s - dropped));
      Ok ({ s; appended = 0 }, records, status)

let append (t : t) ~(kind : int) (payload : string) : unit =
  let f = frame ~kind payload in
  Sink.append t.s f;
  Sink.flush t.s;
  t.appended <- t.appended + String.length f

let reset (t : t) : unit = Sink.truncate t.s 0
let size (t : t) : int = Sink.size t.s
let appended_bytes (t : t) : int = t.appended
let sink (t : t) : Sink.t = t.s
