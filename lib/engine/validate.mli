(** Independent certificate validation of solver answers.

    A rung's answer is never trusted: its allocation is re-checked from
    scratch — makespan by longest path, resource cost by the min-flow
    feasibility oracle ({!Rtt_core.Schedule.min_budget}), and, when an
    LP lower bound is available, the rung's proven approximation factor.
    A bi-criteria claim's LP resource use must also fit the budget,
    since both bi-criteria rungs solve their LP under it.
    Any disagreement is an {!Error.Certificate_mismatch}, never a
    silently wrong answer. *)

open Rtt_core
open Rtt_num

type claim = {
  rung : Policy.rung;
  allocation : int array;
  makespan : int;  (** Claimed makespan. *)
  budget_used : int;  (** Claimed min-flow resource cost. *)
  budget : int;  (** The budget the query asked for. *)
  alpha : Rat.t option;  (** Rounding threshold (bicriteria rung). *)
  lp_makespan : Rat.t option;  (** LP makespan lower bound, if an LP ran. *)
  lp_budget : Rat.t option;  (** LP resource usage, if an LP ran. *)
}

val check : Problem.t -> claim -> (unit, Error.t) result
(** Runs unmetered: validation can neither exhaust fuel nor trip an
    armed fault. *)

val corrupt : int array -> vertex:int -> delta:int -> int array
(** A copy of the allocation with [delta] added at [vertex] — the
    canonical way tests forge a broken certificate. *)
