(** Live mutable instances with warm-started re-solve — the serving
    mode the batch API cannot express.

    A session holds one evolving instance: the client opens it, streams
    mutations ([add-job], [add-edge], [set-duration-option],
    [set-budget], [set-alpha], [remove-job], [seed]), and asks for a
    re-solve whenever it wants the updated schedule. Three invariants:

    - {b Validated like a submission.} Every mutation passes through
      the same {!Rtt_engine.Engine.load_string}-grade validation as a
      submitted instance — a duplicate edge is rejected naming the
      edge, a cycle is rejected naming a witness vertex — and a
      rejected mutation leaves the session untouched.
    - {b Durable like a job.} Every accepted mutation is appended to a
      per-session CRC-framed journal ([<spool>/sessions/<sid>/journal.log])
      and fsync'd {e before} the caller learns the new revision, so a
      session survives [kill -9]: reopening replays the committed
      prefix (sealing a torn tail) to the identical state.
    - {b Warm but byte-identical.} A re-solve reuses the previous
      answer two ways — the last allocation becomes the exact rung's
      answer-preserving exploration cap ({!Rtt_core.Exact.min_makespan}
      [warm_hint]) and the last optimal simplex basis is offered back
      through {!Rtt_lp.Simplex.set_basis_hint}, where it is re-derived
      in exact arithmetic and discarded on any mismatch. Both reuses
      only prune work, so the answer is what a cold solve of the
      current instance returns, byte for byte, for strictly less
      fuel. Basis hints are held in standard-form coordinates
      ([(row, column)] pairs over the constraint rows and real
      variables), so a hint is only ever tried against an LP of the
      same shape; one that no longer fits is discarded. *)

open Rtt_num

type op =
  | Seed of string
      (** Replace the whole instance with this instance text (the
          {!Rtt_core.Io} format) — how a session starts from an
          existing file instead of building up from [add-job]. *)
  | Add_job of (int * int) list
      (** Append one job with the given duration tuples; its index is
          the previous job count. *)
  | Add_edge of int * int
  | Set_duration of int * (int * int) list
  | Set_budget of int
  | Set_alpha of Rat.t
  | Remove_job of int
      (** Delete the vertex, cascade-delete its incident edges, and
          renumber the vertices above it down by one. *)

val op_to_string : op -> string
(** One line, space-tokenized; fields that can carry arbitrary bytes
    are percent-escaped. Inverse of {!op_of_string}. *)

val op_of_string : string -> (op, string) result

type t
(** One open session. *)

type store
(** The sessions of one spool, keyed by session id; sessions live
    under [<spool>/sessions/<sid>/]. *)

val create_store : spool:string -> store

val valid_sid : string -> bool
(** Session ids name directories, so they are restricted to 1–64
    characters from [A-Za-z0-9._-] and must not be ["."] or [".."]. *)

val open_ : store -> string -> (t, string) result
(** Open (creating, or reattaching to a journaled session — replaying
    its committed mutations) the session named by this id. Idempotent:
    reopening an already-open session returns it unchanged. *)

val find : store -> string -> t option
val sid : t -> string

val revision : t -> int
(** Committed (journaled and applied) mutations so far. *)

val mutate : t -> op -> (int, string) result
(** Validate, journal (fsync), then apply one mutation; returns the
    new revision. On [Error] the session state and journal are
    untouched and the message names the reason (out-of-range vertex,
    duplicate edge, cycle witness, ...). *)

type solved = {
  success : Rtt_engine.Engine.success;
  rendered : string;
      (** The canonical answer text ([rung]/[makespan]/[budget]/LP
          bound/[allocation]) — deliberately excludes fuel, so a warm
          re-solve renders byte-identically to a cold solve of the same
          instance. *)
  warm : bool;  (** Whether a previous answer primed this solve. *)
}

val solve :
  ?fuel:int -> ?policy:Rtt_engine.Policy.t -> ?max_states:int -> t ->
  (solved, Rtt_engine.Error.t) result
(** Re-solve the current instance under the session's budget and
    alpha, warm-started from the previous answer when there is one.
    The session remembers the answer (allocation + simplex basis) for
    the next re-solve; mutations remap or retire it as needed. *)

val close : store -> t -> unit
(** Drop the session: close its journal and delete its directory. A
    closed id can be reopened later as a fresh session. *)

val cold_render : Rtt_core.Problem.t -> Rtt_engine.Engine.success -> string
(** The same canonical rendering {!solve} puts in [rendered], exposed
    so tests and the bench can compare a cold solve's text against a
    session's byte for byte. *)

val seal_journal : string -> int
(** Truncate a session journal (path to the [journal.log]) to its
    committed frame prefix; returns the committed record count. What
    [rtt fsck --repair] applies to a torn session journal. *)

val list_sids : spool:string -> string list
(** The session ids journaled under [<spool>/sessions], sorted. *)
