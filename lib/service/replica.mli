(** Replication bookkeeping shared by the primary and its followers.

    The replicated unit is the journal line: a primary ships each
    committed frame verbatim, tagged with its 0-based sequence number
    (its index in the journal), and a follower appends the identical
    bytes with {!Rtt_service.Journal.append_line} — so at quiescence
    the two journals are byte-for-byte equal, and the follower's
    recovery path is {e literally} the crash-recovery path: seal the
    tail, fold the committed prefix.

    The follower's durable position is its {e watermark}: the number of
    records it has applied and fsync'd. Acknowledgements carry the
    watermark (not a per-frame id), so acks are idempotent and a
    delayed or dropped ack only inflates observed lag, never
    correctness. On reconnect the follower offers its watermark and the
    primary re-ships from there — no full re-ship, and re-shipped
    records the follower already has are recognized as stale and
    skipped.

    This module is transport-free; the socket loops live in [Rtt_net]
    ([Daemon] for the primary side, [Standby] for the follower). *)

(** {1 Follower state} *)

type follower = {
  journal : Journal.t;  (** Open for verbatim appends. *)
  spool : string;
  mutable watermark : int;  (** Records durably applied. *)
  mutable states : Journal.states;
      (** {!Journal.fold} of the applied prefix — kept in lockstep with
          [watermark] so local reads are consistent with durability. *)
}

val open_follower : spool:string -> follower
(** Seal the spool's journal tail (crash recovery) and rebuild
    watermark + states from the committed prefix. *)

val close_follower : follower -> unit

val apply_line :
  follower -> seq:int -> line:string -> [ `Applied of Journal.record | `Stale | `Gap | `Bad ]
(** Apply one shipped frame. [`Applied r]: [seq] was exactly the
    watermark and the line decoded — it is now appended, fsync'd, and
    folded into [states]. [`Stale]: [seq < watermark], a re-ship of a
    record we already hold (normal after reconnect). [`Gap]:
    [seq > watermark], at least one frame was lost in transit — the
    follower must reconnect and resume from its watermark. [`Bad]: the
    line failed CRC or grammar; nothing was applied. *)

(** {1 Catch-up (primary side)} *)

val lines_from : spool:string -> int -> (int * string) list
(** [(seq, line)] for every committed journal record with
    [seq >= from], read from disk — how a primary catches a follower up
    after [repl.hello] before switching to live forwarding. *)

val write_blob : path:string -> string -> unit
(** Atomically (tmp + fsync + rename) materialize a shipped attachment
    — an instance or result file — so the follower's spool never holds
    a torn file. *)

val attachment_specs :
  spool:string ->
  cache_dir:string option ->
  Journal.record ->
  [ `Instance of string * string | `Result of string * string | `Cache of string * string ] list
(** The spool files a shipped record references, read from disk:
    the instance body for a [Queued] record, the result file (and
    cache entry, when a cache directory is configured) for a [Done].
    Shipped {e before} the frame itself so the receiver's journal
    never leads its spool. Shared by the primary's replication path
    and a follower serving catch-up to [rtt fsck --repair]. *)

(** {1 Sync-replicas gate (primary side)} *)

module Sync : sig
  (** Holds [submit --wait] acknowledgements until [K] followers have
      durably applied the record that made the submission real. Tokens
      are released in hold order. *)

  type 'a t

  val create : replicas:int -> 'a t
  (** [replicas = 0] never holds: {!hold} returns the token via the
      next {!release} immediately. *)

  val replicas : 'a t -> int

  val hold : 'a t -> seq:int -> 'a -> unit
  (** Hold [token] until the record at index [seq] is covered. *)

  val release : 'a t -> watermarks:int list -> 'a list
  (** Given every live follower's acked watermark, the tokens whose
      record is now durable on at least [replicas] followers, in hold
      order. Call after each ack and after follower membership
      changes. *)

  val pending : 'a t -> int

  val drain : 'a t -> 'a list
  (** Give back everything still held (shutdown: answer rather than
      leak the clients). *)
end

(** {1 Status} *)

val stats_json :
  ?lp:string ->
  role:string ->
  records:int ->
  sync_replicas:int ->
  held:int ->
  followers:(string * int * int) list ->
  unit ->
  string
(** The [stats] verb's JSON: role, journal length, per-follower
    [(peer, sent, acked)] with lag [records - acked], and the sync
    gate's depth. [?lp] is a pre-rendered JSON object with the LP
    engine's counters (see {!Rtt_lp.Simplex.lp_stats_json}) appended as
    an ["lp"] field when provided. *)
