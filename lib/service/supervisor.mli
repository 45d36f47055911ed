(** Crash-safe batch supervisor: drains a spool directory of instance
    files through {!Rtt_engine.Engine.solve}.

    The spool is the unit of state: instance files ([*.rtt]), the job
    journal ([journal.log], {!Journal}), per-job checkpoint sidecars
    ([*.ckpt], {!Checkpoint}) and per-job results ([*.result]). A
    supervisor process can die at any instruction — [kill -9]
    included — and a restarted [run] over the same spool recovers to a
    consistent state from the journal alone: completed jobs are never
    re-run (or double-reported), an interrupted attempt resumes from
    its checkpoint, and attempt counts survive.

    Failure handling composes three deterministic mechanisms:
    per-attempt fuel deadlines ([deadline_fuel], no wall clock),
    transient-vs-permanent classification with capped exponential
    backoff ({!Retry}), and checkpoint/resume (the exact rung's
    branch-and-bound incumbent is persisted every [checkpoint_every]
    ticks and fed back as a warm start, so a retried or resumed attempt
    spends strictly less fuel than a cold one).

    With [workers > 1] the drain runs through a fork-based worker pool
    ({!Pool}): the parent keeps sole ownership of the journal, claims
    jobs, and hands them to workers over pipes; each worker runs the
    same {!Work.attempt} as the sequential path, so the two modes
    produce the same journal outcomes up to record order. A worker
    killed mid-solve is a crashed attempt — replayed, never
    double-reported. With a [cache_dir], results are published to a
    content-addressed cache ({!Rtt_engine.Cache}) and duplicate
    instances are solved once.

    On SIGTERM/SIGINT the supervisor stops claiming jobs, checkpoints
    and journals the in-flight attempt(s) as abandoned, and returns
    {!shutdown_exit_code}. *)

type config = Work.config = {
  spool : string;
  budget : int;  (** Resource budget passed to every solve. *)
  policy : Rtt_engine.Policy.t;
  max_attempts : int;  (** Attempts per job before it is declared dead. *)
  deadline_fuel : int option;  (** Per-attempt fuel deadline; [None] = unmetered. *)
  checkpoint_every : int;  (** Ticks between checkpoint offers. *)
  seed : int;  (** Backoff jitter seed ({!Retry.backoff}); inherited by forked workers. *)
  sleep : bool;  (** Actually pause 1 ms per backoff unit between attempts. *)
  verbose : bool;  (** Progress lines on stderr. *)
  workers : int;  (** Pool width; 1 = in-process sequential drain. *)
  cache_dir : string option;  (** Content-addressed result cache; [None] disables. *)
}

val default_config : spool:string -> config
(** budget 4, default policy, 3 attempts, no deadline, checkpoint every
    1000 ticks, seed 0, sleeping, quiet, 1 worker, no cache. *)

val drained_exit_code : int  (** 0 — every job reached [done]. *)

val failed_jobs_exit_code : int
(** 31 — the spool was drained but at least one job failed permanently. *)

val shutdown_exit_code : int
(** 30 — a SIGTERM/SIGINT stopped the run; undone jobs remain resumable. *)

val run : ?notify:(Journal.record -> unit) -> config -> int
(** Drain the spool; returns one of the exit codes above. Never raises
    on solver failures — those are journaled.

    [notify] is called with every record immediately after it has been
    durably journaled — the hook a front-end (the network daemon, a
    metrics exporter) uses to observe completions without tailing the
    journal file. It runs in the journal-owning process; keep it
    fast and never let it raise. *)

val report : spool:string -> Journal.states
(** Current job states: the journal's view, plus spool instance files
    the journal has not seen yet (as pending, after every journaled
    job in {!Journal.to_list} order). *)

val render_report : spool:string -> string
(** Human-readable table for [rtt jobs], with a trailing
    completed-from-cache tally when any job was served from the
    cache. *)

val result_path : spool:string -> job:string -> string

val read_result : spool:string -> job:string -> (string * string) list option
(** The recorded result file as [key, value] pairs ([allocation] is a
    space-separated list); [None] if absent. *)
