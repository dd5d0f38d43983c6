(** The one file format for learned verdicts: a CRC-framed,
    append-only record log.

    The server's write-ahead journal appends each cacheable decide-cache
    verdict the moment it lands, so after a [kill -9] nothing acked is
    lost.  A decide-cache snapshot is the same format, compacted: every
    cached verdict written at once by {!write}, least recently used
    first.  Boot, the fleet's journal fold and compaction are therefore
    one replay ({!recover}) plus one atomic rewrite ({!write}).

    {b File format} (text, versioned):
    {v
    fq-decide-journal 1
    CRC8HEX<TAB>PAYLOAD
    ...
    v}
    One record per line.  [CRC8HEX] is the IEEE CRC-32 of the payload
    bytes in lowercase hex; the payload is an opaque single-line string
    (the decide-cache entry rendering — tabs allowed, newlines excluded
    by construction).  The framing makes every corruption mode
    detectable and non-fatal:
    - a {e torn tail} (the crash interrupted a write, so the file does
      not end in a newline) is truncated back to the last complete
      record;
    - a {e corrupt record} anywhere (bit rot, a torn write that happens
      to contain a newline) fails its CRC and is skipped, without
      sacrificing the valid records after it;
    - an {e empty or missing} file recovers to zero records.
    Only a wrong magic/version header is an error — that file is not a
    journal, and silently resetting it would destroy user data.

    {b Fault sites} (chaos drills, see {!Fq_core.Fault}):
    ["journal.append"] fires before each record write (models short
    writes and ENOSPC — a faulted append leaves the file unchanged, so
    recovery still sees a valid prefix); ["journal.rotate"] fires before
    the atomic rewrite of {!reset} (models a torn rename — the old
    journal survives intact). *)

type t
(** An open journal, positioned for appending.  Not thread-safe by
    itself: callers serialize access (the server holds one journal
    mutex). *)

type recovery = {
  applied : int;  (** records that passed their CRC and were replayed *)
  skipped : int;  (** corrupt records dropped *)
  truncated_bytes : int;  (** torn-tail bytes cut from the file *)
}

val recover : ?truncate:bool -> string -> f:(string -> unit) -> (recovery, string) result
(** [recover path ~f] replays every valid record's payload through [f]
    in append order, truncates a torn tail in place, and reports what it
    found.  A missing or empty file recovers to zero records; [Error]
    only on a wrong header (not a journal) or an unreadable file.
    [~truncate:false] makes the pass read-only (a torn tail is reported
    but left in place) — the mode for reading a snapshot, which fleet
    workers share, and for the fleet parent folding a {e live} worker's
    journal, where the worker still owns the append position and
    truncating under it would destroy a record mid-write. *)

val open_append : string -> (t, string) result
(** Open [path] for appending, creating it (with the version header) if
    missing or empty.  Call {!recover} first on an existing file so the
    append position sits after a complete record. *)

val append : t -> string -> (unit, string) result
(** Frame one payload (which must not contain a newline) with its CRC
    and append it, flushing to the OS so the record survives a process
    crash.  [Error] on I/O failure (e.g. ENOSPC) — the journal stays
    usable; the record is simply not durable. *)

val write : string -> string list -> (unit, string) result
(** [write path payloads] atomically replaces [path] with the header and
    one framed record per payload, in order (temp file + rename: a
    failed write leaves any existing file byte-identical). *)

type mark
(** A position in the journal: the records appended after it. *)

val mark : t -> mark
(** The current end of the journal.  Take it under the same lock as
    {!append}, before the cache walk of a snapshot that {!reset} will
    then compact against. *)

val reset : t -> since:mark -> (unit, string) result
(** Atomically rewrite the journal's path with only the records appended
    after [since] and reopen it for appending — the compaction step,
    after the cache has been snapshotted.  A verdict journaled while the
    snapshot was being written may be missing from it, so it stays in
    the journal.  If another reset came between the mark and this one,
    every record is kept.  Records in both files replay idempotently.
    If the rewrite fails the old journal is left in place; if only the
    reopen fails the handle is closed. *)

val sync : t -> unit
(** [fsync] the journal file descriptor. *)

val close : t -> unit

val path : t -> string

val appended : t -> int
(** Records appended through this handle since {!open_append} (resets do
    not clear it). *)

val crc32 : string -> int32
(** The IEEE CRC-32 used for framing (exposed for tests). *)
