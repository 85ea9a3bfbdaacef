(** Crash-safe append-only JSONL journal of batch events.

    Every job event the supervisor observes — start, attempt, retry,
    success, quarantine, timeout, differential verdict — is one JSON
    object per line, printed by {!Minflo_util.Json.to_string}, appended,
    flushed and fsynced before the runner proceeds, so the journal is a
    faithful prefix of the run even after a SIGKILL. Typed errors are
    embedded as {!Minflo_robust.Diag.to_json} objects, so scripts can key
    on the same stable [code] fields the CLI exit codes are derived from.

    The journal doubles as the batch's completion record: on [--resume],
    {!completed} scans an existing journal and returns the jobs that
    already finished, which the runner then skips. Reading goes through
    {!Minflo_util.Json.parse}: a line truncated by a crash mid-write does
    not parse and is ignored. *)

type t

val open_append : string -> (t, Minflo_robust.Diag.error) result
(** Open (creating if needed) for appending. Takes the single-writer lock,
    seals a torn final line, then garbage-collects stale [*.tmp] files
    anywhere under the journal's directory (orphans of a crash
    mid-[atomic_replace]) and journals a ["tmp-swept"] event naming them. *)

val path : t -> string

val event :
  t ->
  ?job:string ->
  ?error:Minflo_robust.Diag.error ->
  ?fields:(string * Minflo_util.Json.t) list ->
  string ->
  unit
(** [event t ~job ~error ~fields name] appends one line
    [{"event":name,"seq":n,"t":seconds,"job":…,…fields,
      "code":…,"message":…,"error":{…}}]
    and fsyncs it; [message] is {!Minflo_robust.Diag.to_string} of the
    error, so a restarted daemon answers with the same text as the live
    one. A float field that may be non-finite should be built
    with {!Minflo_util.Json.float}, which keeps it readable. Write failures are
    silent — journaling must never kill the run it documents — but the
    typed error is remembered (see {!last_error}). All bytes go through the
    instrumented {!Minflo_robust.Io} layer, so [io.*] fault sites and the
    torture harness's crash boundaries apply. *)

val event_checked :
  t ->
  ?job:string ->
  ?error:Minflo_robust.Diag.error ->
  ?fields:(string * Minflo_util.Json.t) list ->
  string ->
  (unit, Minflo_robust.Diag.error) result
(** Like {!event}, but reports the write/fsync failure to the caller —
    for paths where the append is load-bearing (the serve daemon's
    "accepted means recoverable" promise: the acceptance line must be
    durable before the client hears [accepted]). *)

val last_error : t -> Minflo_robust.Diag.error option
(** The most recent append failure swallowed by {!event} ([None] when every
    append so far landed). *)

val close : t -> unit

val completed : string -> (string, float) Hashtbl.t
(** [completed path] scans the journal for ["job-ok"] events and returns
    their top-level [job] id -> final [area]. Missing file means an empty
    table; lines that do not parse are skipped. *)

val canonical : string -> string list
(** The journal's lines in canonical form: the lines {!scan} keeps, with
    volatile top-level fields ([seq], [t], [backoff_seconds], [pid])
    removed, reprinted, and stably sorted by their top-level [job] field
    (lines without one first, in original order; a [job] inside an
    embedded error object does not count). Two runs of the same batch are
    equivalent iff their canonical journals are equal — in particular,
    [-j N] reorders events {e between} jobs but never within one, so the
    canonical journal of a parallel run is bit-identical to the sequential
    run's. The test-suite and the batch
    differential rely on exactly this. *)

val scan : string -> (string * Minflo_util.Json.t) list
(** [scan path] returns every line that parses as a JSON object with a
    string [event] field as [(event, object)], in journal order; read
    fields back with {!Minflo_util.Json.member} and its typed accessors.
    Torn lines are dropped; a missing file means an empty list. This is
    the serve daemon's recovery substrate: accepted-but-unfinished jobs
    are exactly those with an acceptance event and no terminal event. *)
