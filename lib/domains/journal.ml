(* Append-only CRC-framed journal for the decide cache.  See journal.mli
   for the format and the recovery semantics; the invariant everything
   below maintains is that the file is always a valid header followed by
   zero or more complete records plus at most one torn tail, so recovery
   can never be worse than "lose the record being written". *)

let magic = "fq-decide-journal"
let version = 1
let header = Printf.sprintf "%s %d" magic version

(* IEEE CRC-32 (polynomial 0xEDB88320, the zlib/PNG one), table-driven
   over native ints so the per-byte loop allocates nothing.  Pure OCaml
   so the journal adds no dependencies. *)
let crc_table =
  Array.init 256 (fun n ->
      let c = ref n in
      for _ = 0 to 7 do
        c := if !c land 1 <> 0 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
      done;
      !c)

let crc32 (s : string) : int32 =
  let c = ref 0xFFFFFFFF in
  for i = 0 to String.length s - 1 do
    c := crc_table.((!c lxor Char.code s.[i]) land 0xFF) lxor (!c lsr 8)
  done;
  Int32.of_int (!c lxor 0xFFFFFFFF)

(* [Printf.sprintf "%08lx\t%s\n" (crc32 payload) payload], built
   directly: Printf's format interpreter was most of a snapshot save's
   framing cost. *)
let frame payload =
  let crc = Int32.to_int (crc32 payload) and n = String.length payload in
  let b = Bytes.create (n + 10) in
  for i = 0 to 7 do
    Bytes.set b i "0123456789abcdef".[(crc lsr (28 - (4 * i))) land 0xF]
  done;
  Bytes.set b 8 '\t';
  Bytes.blit_string payload 0 b 9 n;
  Bytes.set b (n + 9) '\n';
  Bytes.unsafe_to_string b

(* A complete record line, without its trailing newline.  Returns the
   payload if the frame checks out. *)
let unframe line =
  match String.index_opt line '\t' with
  | Some 8 ->
      let crc_hex = String.sub line 0 8 in
      let payload = String.sub line 9 (String.length line - 9) in
      let ok =
        match Int32.of_string_opt ("0x" ^ crc_hex) with
        | Some crc -> Int32.equal crc (crc32 payload)
        | None -> false
      in
      if ok then Some payload else None
  | _ -> None

type t = {
  j_path : string;
  mutable j_fd : Unix.file_descr;
  mutable j_appended : int;
  mutable j_closed : bool;
  mutable j_resets : int;
}

(* A byte offset into the file as of [m_resets] resets: a later reset
   rewrote the file, so the offset no longer points at a record start. *)
type mark = { m_resets : int; m_offset : int }

type recovery = { applied : int; skipped : int; truncated_bytes : int }

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let recover ?(truncate = true) path ~f =
  if not (Sys.file_exists path) then Ok { applied = 0; skipped = 0; truncated_bytes = 0 }
  else
    match read_file path with
    | exception Sys_error e -> Error (Printf.sprintf "journal: cannot read %s: %s" path e)
    | contents when String.length contents = 0 ->
        Ok { applied = 0; skipped = 0; truncated_bytes = 0 }
    | contents -> (
        (* Keep only the terminated prefix; whatever follows the last
           newline is a torn tail from an interrupted append. *)
        let valid_len =
          match String.rindex_opt contents '\n' with Some i -> i + 1 | None -> 0
        in
        let torn = String.length contents - valid_len in
        let lines =
          if valid_len = 0 then []
          else String.split_on_char '\n' (String.sub contents 0 (valid_len - 1))
        in
        match lines with
        | [] ->
            (* Nothing but a torn tail: the header itself never made it
               to disk whole.  Treat as empty — open_append rewrites it. *)
            if torn > 0 && truncate then
              (try Unix.truncate path 0 with Unix.Unix_error _ -> ());
            Ok { applied = 0; skipped = 0; truncated_bytes = torn }
        | hd :: records ->
            if not (String.equal hd header) then
              Error
                (Printf.sprintf "journal: %s: bad header %S (want %S)" path hd header)
            else begin
              if torn > 0 && truncate then
                (try Unix.truncate path valid_len with Unix.Unix_error _ -> ());
              let applied = ref 0 and skipped = ref 0 in
              List.iter
                (fun line ->
                  match unframe line with
                  | Some payload ->
                      f payload;
                      incr applied
                  | None -> incr skipped)
                records;
              Ok { applied = !applied; skipped = !skipped; truncated_bytes = torn }
            end)

let open_append path =
  try
    let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644 in
    let size = (Unix.fstat fd).Unix.st_size in
    if size = 0 then begin
      let line = header ^ "\n" in
      let n = Unix.write_substring fd line 0 (String.length line) in
      if n <> String.length line then begin
        Unix.close fd;
        failwith "short write on journal header"
      end
    end;
    Ok { j_path = path; j_fd = fd; j_appended = 0; j_closed = false; j_resets = 0 }
  with
  | Unix.Unix_error (e, _, _) ->
      Error (Printf.sprintf "journal: cannot open %s: %s" path (Unix.error_message e))
  | Failure e -> Error (Printf.sprintf "journal: %s: %s" path e)

(* Append one framed record.  O_APPEND makes the write atomic with
   respect to position; a short write (ENOSPC mid-record) leaves a torn
   tail that the next recovery truncates — never a corrupt prefix. *)
let append t payload =
  if t.j_closed then Error "journal: closed"
  else
    match Fq_core.Fault.hit "journal.append" with
    | exception e -> Error (Printf.sprintf "journal: injected fault: %s" (Printexc.to_string e))
    | () -> (
        let line = frame payload in
        match Unix.write_substring t.j_fd line 0 (String.length line) with
        | exception Unix.Unix_error (e, _, _) ->
            Error (Printf.sprintf "journal: append: %s" (Unix.error_message e))
        | n when n <> String.length line ->
            Error (Printf.sprintf "journal: short write (%d/%d bytes)" n (String.length line))
        | _ ->
            t.j_appended <- t.j_appended + 1;
            Ok ())

let sync t = if not t.j_closed then try Unix.fsync t.j_fd with Unix.Unix_error _ -> ()

let close t =
  if not t.j_closed then begin
    t.j_closed <- true;
    try Unix.close t.j_fd with Unix.Unix_error _ -> ()
  end

let path t = t.j_path
let appended t = t.j_appended

(* The one rewrite: snapshots, and compaction of a journal down to its
   tail, publish a whole file at once.  Write-to-temp + rename keeps a
   valid file at [path] at every instant. *)
let publish path emit =
  let tmp = path ^ ".tmp" in
  match
    Out_channel.with_open_bin tmp (fun oc ->
        output_string oc (header ^ "\n");
        emit oc);
    Sys.rename tmp path
  with
  | () -> Ok ()
  | exception Sys_error e ->
    (try Sys.remove tmp with Sys_error _ -> ());
    Error (Printf.sprintf "journal: write: %s" e)

let write path records =
  publish path (fun oc -> List.iter (fun payload -> output_string oc (frame payload)) records)

let mark t =
  { m_resets = t.j_resets;
    m_offset = (try (Unix.fstat t.j_fd).Unix.st_size with Unix.Unix_error _ -> 0) }

(* The framed records appended after [since], verbatim. *)
let tail t since =
  let from =
    if since.m_resets = t.j_resets then since.m_offset else String.length header + 1
  in
  In_channel.with_open_bin t.j_path (fun ic ->
      let len = Int64.to_int (In_channel.length ic) in
      if from >= len then ""
      else begin
        In_channel.seek ic (Int64.of_int from);
        really_input_string ic (len - from)
      end)

(* Compaction: the cache was just snapshotted, so the records before
   [since] are redundant — swap in a file holding only the rest.  The fd
   must be reopened because the rename detaches the old inode. *)
let reset t ~since =
  if t.j_closed then Error "journal: closed"
  else
    match Fq_core.Fault.hit "journal.rotate" with
    | exception e -> Error (Printf.sprintf "journal: injected fault: %s" (Printexc.to_string e))
    | () -> (
      match tail t since with
      | exception Sys_error e -> Error (Printf.sprintf "journal: reset: %s" e)
      | kept -> (
        Result.bind (publish t.j_path (fun oc -> output_string oc kept)) @@ fun () ->
        t.j_resets <- t.j_resets + 1;
        (try Unix.close t.j_fd with Unix.Unix_error _ -> ());
        match Unix.openfile t.j_path [ Unix.O_WRONLY; Unix.O_APPEND ] 0o644 with
        | fd ->
          t.j_fd <- fd;
          Ok ()
        | exception Unix.Unix_error (e, _, _) ->
          t.j_closed <- true;
          Error (Printf.sprintf "journal: reset: %s" (Unix.error_message e))))
