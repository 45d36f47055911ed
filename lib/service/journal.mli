(** Write-ahead job journal: the supervisor's single source of truth.

    Append-only, line-framed, one record per line, each protected by a
    CRC-32 over its payload and fsync'd before {!append} returns — so a
    [kill -9] at any instruction leaves a journal whose valid prefix is
    exactly the set of events that were durably acknowledged. Replay
    ({!replay}) accepts that prefix and drops a truncated or
    CRC-corrupt tail record (and anything after it) instead of failing:
    an interrupted append is indistinguishable from an append that
    never happened, which is the correct recovery semantics for a WAL.

    The derived job state ({!fold}/{!apply}) is a pure left fold, so
    replaying any prefix of a journal and then the rest yields the same
    {!states} as one replay — the idempotence property the test suite
    checks. *)

type event =
  | Queued  (** The job was discovered in the spool. *)
  | Started of { attempt : int }  (** Attempt [attempt] (1-based) claimed the job. *)
  | Done of { attempt : int; makespan : int; budget_used : int; fuel : int; cached : bool }
      (** The attempt produced a validated answer; recorded once, ever.
          [cached] marks a result served from the content-addressed
          cache instead of a solve ([fuel] is then 0). Journals written
          before the cache existed replay with [cached = false]. *)
  | Failed of { attempt : int; error_class : string; transient : bool; backoff : int }
      (** The attempt failed. [transient] means the supervisor will
          retry after [backoff] backoff units; permanent failures end
          the job. *)
  | Abandoned of { attempt : int }
      (** Graceful shutdown interrupted the attempt; the job resumes
          from its checkpoint on the next run. *)

type record = { job : string; event : event }

(** {1 Durable log} *)

type t
(** An open journal handle (append mode). *)

val path : spool:string -> string
(** [spool ^ "/journal.log"]. *)

val open_ : spool:string -> t
(** Open (creating if absent) the spool's journal for appending. Seals
    first ({!seal}): a torn final line left by a crash is truncated
    away so the next append starts on a newline boundary rather than
    corrupting itself against the torn tail. *)

val append : t -> record -> unit
(** Frame, CRC, write and fsync one record. When [append] returns, the
    record survives a crash. *)

val append_line : t -> string -> unit
(** Append one already-framed line (no trailing newline) verbatim,
    then fsync. Used by replication followers so a replayed journal is
    byte-for-byte the primary's — re-encoding could differ if the wire
    format ever grows alternate spellings. The line is not validated;
    callers decode before appending. *)

val replay_wire : spool:string -> string list * int
(** The committed prefix at the byte level: the framed lines (without
    their newlines) that both decode and end in ['\n'], and the total
    byte length of that prefix (newlines included). A decodable final
    line with no terminating newline is a torn write and is excluded.
    This is the stream a primary ships to followers and the follower's
    durable watermark is [List.length (fst (replay_wire ...))]. *)

val seal : spool:string -> int
(** Truncate the journal to its committed prefix ({!replay_wire}) and
    fsync; returns the number of committed records. A missing journal
    seals to 0 records. Promotion calls this to fsync-seal a follower's
    tail before replaying claims. *)

val close : t -> unit

val fd : t -> Unix.file_descr
(** The underlying descriptor — exposed so a forked child (pool or
    daemon worker) can close its inherited copy; only the owning
    process may write. *)

val replay : spool:string -> record list
(** The journal's valid prefix, in append order. A missing journal is
    an empty one. A record that fails CRC or framing ends the prefix:
    it and everything after it are dropped. *)

(** {1 Derived job state} *)

type status =
  | Pending of { attempts : int }
      (** Awaiting (re)execution; [attempts] already consumed. *)
  | Running of { attempt : int }
      (** A [Started] with no terminal event — in-flight, or the
          previous process crashed mid-attempt. *)
  | Interrupted of { attempt : int }  (** Abandoned by a graceful shutdown. *)
  | Completed of { attempt : int; makespan : int; budget_used : int; fuel : int; cached : bool }
  | Dead of { attempts : int; error_class : string }
      (** Permanently failed (bad instance, or retries exhausted). *)

val step : status option -> event -> status
(** One job's state machine: its status after [event], given its
    status before ([None] if no record named it yet). [Completed] is
    absorbing. *)

type states
(** Every journaled job's current {!status}: a persistent index, so a
    step returns a new value and leaves its argument usable. {!apply}
    and {!find} cost O(log n) in the number of jobs, which keeps a
    long-running daemon's per-record bookkeeping flat as its journal
    grows; {!to_list} lists jobs in first-encounter order. *)

val empty : states

val apply : states -> record -> states
(** One state-machine step; an unknown job is added after every job
    already seen. *)

val fold : record list -> states
(** [List.fold_left apply empty]: still a pure left fold, so folding a
    prefix and then applying the rest equals folding the whole. *)

val find : states -> string -> status option
(** The job's status, or [None] if no record names it. O(log n). *)

val exists : (status -> bool) -> states -> bool
(** Does some job's status satisfy the predicate? *)

val to_list : states -> (string * status) list
(** Every job with its status, in the order the jobs first appeared in
    the records. O(n log n). *)

val status_name : status -> string
val pp_status : Format.formatter -> status -> unit

(** {1 Wire format (exposed for tests)} *)

val encode : record -> string
(** One framed line, without the trailing newline. *)

val decode : string -> record option
(** [None] on bad CRC or framing. *)

val crc32 : string -> int32
(** CRC-32 (IEEE 802.3) of a string, as used by the framing.
    Alias of {!Frame.crc32}. *)

val encode_job : string -> string
(** Percent-encode a job name so it survives space-separated framing
    (also used by the worker-pool wire protocol). Alias of
    {!Frame.escape}. *)

val decode_job : string -> string option
