
(* Format version of the shard file syntax itself (header + line
   grammar) — distinct from the semantic fingerprint callers derive
   from the code computing the values.

   Version history:
   - 1: [<section> <key> := <value>] per line, no checksum.
   - 2: same payload followed by [ #<crc32>] — 8 lowercase hex digits
     of the CRC-32 of the payload — so a torn or bit-flipped line is
     detected per line instead of condemning the whole shard. *)

let magic = "# rme-store"
let current_version = 2
let header ~fingerprint = Printf.sprintf "%s %d %s" magic current_version fingerprint
let entry_sep = " := "
let crc_sep = " #"
let crc_suffix_len = String.length crc_sep + 8

(* [`Ok (version, fingerprint)] for any well-formed header, current or
   old; [`Future] for a well-formed header of a version this code does
   not know (skip, don't quarantine: a newer writer shares the
   directory); [`Bad] otherwise. *)
let parse_header line =
  let ml = String.length magic in
  if String.length line < ml + 2 || String.sub line 0 ml <> magic || line.[ml] <> ' '
  then `Bad
  else
    match String.index_from_opt line (ml + 1) ' ' with
    | None -> `Bad
    | Some sp -> (
        match int_of_string_opt (String.sub line (ml + 1) (sp - ml - 1)) with
        | None -> `Bad
        | Some v ->
            let fp = String.sub line (sp + 1) (String.length line - sp - 1) in
            if fp = "" then `Bad
            else if v >= 1 && v <= current_version then `Ok (v, fp)
            else `Future)

(* One entry per line: [<section> <key> := <value>]. The key itself is
   space-separated fields, so the section is the first token and the
   key runs up to the (first) separator. *)
let decode_payload line =
  let find_sub () =
    let n = String.length line and sl = String.length entry_sep in
    let rec go i =
      if i + sl > n then None
      else if String.sub line i sl = entry_sep then Some i
      else go (i + 1)
    in
    go 0
  in
  match find_sub () with
  | None -> None
  | Some i -> (
      let lhs = String.sub line 0 i in
      let value =
        String.sub line (i + String.length entry_sep)
          (String.length line - i - String.length entry_sep)
      in
      match String.index_opt lhs ' ' with
      | None -> None
      | Some j ->
          let section = String.sub lhs 0 j in
          let key = String.sub lhs (j + 1) (String.length lhs - j - 1) in
          if section = "" || key = "" then None else Some (section, key, value))

let encode_line ~section ~key ~value =
  let payload = String.concat "" [ section; " "; key; entry_sep; value ] in
  String.concat "" [ payload; crc_sep; Crc32.to_hex (Crc32.string payload) ]

(* Split [payload #crc] and verify. The suffix position is fixed (the
   checksum is always the last 10 bytes), so a value containing ['#']
   can never confuse the parse. *)
let decode_line ~version line =
  if version <= 1 then decode_payload line
  else
    let n = String.length line in
    if n < crc_suffix_len then None
    else
      let split = n - crc_suffix_len in
      if
        line.[split] = ' '
        && line.[split + 1] = '#'
        && String.sub line (split + 2) 8 = Crc32.to_hex (Crc32.sub line ~pos:0 ~len:split)
      then decode_payload (String.sub line 0 split)
      else None
