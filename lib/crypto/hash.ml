(** Bitcoin-style hash combinators and domain-separated (tagged) hashing. *)

(** Double SHA-256, as used for transaction ids. *)
let hash256 (s : string) : string = Sha256.digest (Sha256.digest s)

(** SHA-256 then RIPEMD-160, as used for P2WPKH witness programs. *)
let hash160 (s : string) : string = Ripemd160.digest (Sha256.digest s)

(** Uncached BIP-340 style tagged hash:
    SHA256(SHA256(tag) || SHA256(tag) || msg). Reference path. *)
let tagged_uncached (tag : string) (msg : string) : string =
  let th = Sha256.digest tag in
  Sha256.digest (th ^ th ^ msg)

(* The repository uses a small fixed set of domain-separation tags
   ("daric/challenge", "daric/nonce", "daric/sighash", ...), so the
   *midstate* of each tagged hash — the SHA-256 chaining value after
   absorbing the 64-byte prefix SHA256(tag) || SHA256(tag), which is
   exactly one block — is cached. Every tagged call then pays only the
   message blocks: one compression and the prefix concatenation
   cheaper than rehashing the prefix. *)
let tag_midstate : string -> Sha256.st =
  Daric_util.Memo.make ~cap:256 (fun tag ->
      let th = Sha256.digest tag in
      let st = Sha256.st_create () in
      Sha256.st_feed st th 0 32;
      Sha256.st_feed st th 0 32;
      st)

(** BIP-340 style tagged hash: SHA256(SHA256(tag) || SHA256(tag) || msg).
    Used to domain-separate nonce derivation, challenges, etc.
    Equal to {!tagged_uncached}; the per-tag prefix midstate is
    memoized. *)
let tagged (tag : string) (msg : string) : string =
  Sha256.st_digest (tag_midstate tag) [ (msg, 0, String.length msg) ]

(** [tagged_parts tag parts] = {!tagged} of the concatenation of the
    [(string, off, len)] slices, computed without materializing it —
    the zero-copy path for sighashes over cached body encodings. *)
let tagged_parts (tag : string) (parts : (string * int * int) list) : string =
  Sha256.st_digest (tag_midstate tag) parts

(** Interpret the first 8 bytes of a digest as a non-negative int. *)
let digest_to_int (d : string) : int =
  let v = ref 0 in
  for i = 0 to 7 do
    v := (!v lsl 8) lor Char.code d.[i]
  done;
  !v land max_int
