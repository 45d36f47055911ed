(** The linear-programming relaxation of Section 3.1 (LP 6–10).

    Variables: one resource-flow variable [f_e] per edge of the
    transformed DAG D″ and one event-time variable [T_v] per vertex.
    Constraints: [f_e <= r_e] on two-tuple edges; precedence
    [T_u + t_e(f_e) <= T_v]; flow conservation at internal vertices; and
    the budget [sum of flow out of the source <= B]. The relaxed duration
    of a two-tuple edge is the decreasing linear interpolation
    [t_e(f) = t0 * (1 - f / r_e)] (the paper's Equation 4 prints the
    increasing form [t0 * f / r_e]; see DESIGN.md — the analysis requires
    the decreasing one). Single-tuple edges have constant duration and
    unbounded flow, which is what lets resources travel onward for reuse.

    Solved exactly over rationals; the optimum is a lower bound on the
    integral OPT, which is how the bi-criteria guarantees are checked. *)

open Rtt_num

type solution = {
  flow : Rat.t array;  (** per transformed edge *)
  times : Rat.t array;  (** event time per transformed-graph vertex *)
  makespan : Rat.t;  (** [T_sink] *)
  budget_used : Rat.t;  (** flow out of the source *)
}

val edge_duration : Transform.edge -> Rat.t -> Rat.t
(** The relaxed duration [t_e(f)] of an edge at flow [f]. *)

val dimensions : Transform.t -> int * int
(** [(variables, constraints)] of the makespan LP for this transformed
    DAG — the size of the system the simplex factorizes. Used by the
    bench harness to report instance scale next to wall time. *)

val makespan_rows :
  Transform.t -> budget:int -> int * Rtt_lp.Simplex.sparse_constr list * Rat.t array
(** [(n_vars, rows, objective)]: the makespan LP exactly as
    {!min_makespan} hands it to {!Rtt_lp.Simplex.minimize_sparse}, for
    running the same system through another solver (the bench's and
    the tests' dense oracle). *)

val min_makespan : Transform.t -> budget:int -> solution
(** Minimize [T_sink] under resource budget. Always feasible (zero flow).
    @raise Invalid_argument on a negative budget. *)

val min_resource : Transform.t -> target:Rat.t -> solution option
(** Minimize the flow out of the source subject to [T_sink <= target];
    [None] when even unlimited resources cannot meet the target. *)
